package sim

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"dynamo/internal/core"
	"dynamo/internal/power"
	"dynamo/internal/statestore"
	"dynamo/internal/telemetry"
	"dynamo/internal/topology"
)

// detSpec is big enough (≥ parallelTickMin servers) that the sharded tick
// path actually engages.
func detSpec() topology.Spec {
	spec := topology.DefaultSpec()
	spec.MSBs, spec.SBsPerMSB, spec.RPPsPerSB = 1, 2, 2
	spec.RacksPerRPP, spec.ServersPerRack = 2, 32
	// Tight ratings so the surge below reliably trips rack breakers (which
	// no controller protects) while the RPP leaf controllers cap servers
	// (producing alerts): both code paths land in the fingerprint.
	spec.RackRating = power.KW(8.5)
	spec.RPPRating = power.KW(16)
	return spec
}

// fingerprint captures everything the golden test compares: trips,
// alerts, recorded device series, and the final fleet total.
type fingerprint struct {
	Trips  []TripEvent
	Alerts int
	Series map[topology.NodeID][]float64
	Total  float64
}

// runDetScenario drives a fixed scenario: validators on, device recording
// on, a saturating surge that trips breakers, and a restore that starts
// DCUPS recharges.
func runDetScenario(t *testing.T, workers, ctrlWorkers int, tel *telemetry.Sink) fingerprint {
	fp, _ := runDetScenarioCkpt(t, workers, ctrlWorkers, tel, false)
	return fp
}

// runDetScenarioCkpt is runDetScenario with optional state-store
// checkpointing; the second return is the store's per-device stream
// digest (nil when checkpointing is off).
func runDetScenarioCkpt(t *testing.T, workers, ctrlWorkers int, tel *telemetry.Sink, ckpt bool) (fingerprint, map[string][]uint64) {
	t.Helper()
	spec := detSpec()
	s, err := New(Config{
		Spec:              spec,
		Seed:              42,
		EnableDynamo:      true,
		ValidatorInterval: 30 * time.Second,
		TickWorkers:       workers,
		Hierarchy:         core.HierarchyConfig{ControlWorkers: ctrlWorkers},
		Telemetry:         tel,
		Checkpoint:        ckpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	rpp := s.Topo.OfKind(topology.KindRPP)[0]
	s.Record(5*time.Second, rpp.ID, rpp.Parent.ID)
	s.At(2*time.Minute, func() { s.SetExtraLoadUnder(rpp.ID, 0.9) })
	s.At(7*time.Minute, func() { s.SetExtraLoadUnder(rpp.ID, 0) })
	s.At(8*time.Minute, func() { s.RestoreDevice(rpp.ID) })
	s.Run(12 * time.Minute)

	fp := fingerprint{
		Trips:  s.Trips,
		Alerts: len(s.Alerts),
		Series: map[topology.NodeID][]float64{},
		Total:  float64(s.TotalPower()),
	}
	for _, id := range []topology.NodeID{rpp.ID, rpp.Parent.ID} {
		fp.Series[id] = append([]float64(nil), s.Series(id).Values()...)
	}
	return fp, storeDigest(s.Store)
}

// storeDigest summarizes a state store's streams for byte-identity
// comparison: per device, the epoch, next sequence number, and the cycle
// number of every retained entry.
func storeDigest(st *statestore.Store) map[string][]uint64 {
	if st == nil {
		return nil
	}
	out := map[string][]uint64{}
	for _, dev := range st.Devices() {
		ents, next := st.EntriesFrom(dev, 1)
		row := []uint64{st.Epoch(dev), next}
		for _, e := range ents {
			row = append(row, e.Seq, e.Cycles, uint64(e.Kind), uint64(len(e.Payload)))
		}
		out[dev] = row
	}
	return out
}

// TestSimDeterminismGolden asserts the core contract of the aggregation
// and control layers: same seed, same spec → byte-identical trips, alerts,
// and recorded series, regardless of physics-tick worker count, control
// cohort worker count, GOMAXPROCS, or telemetry.
func TestSimDeterminismGolden(t *testing.T) {
	base := runDetScenario(t, 1, 1, nil)
	if len(base.Trips) == 0 {
		t.Fatal("scenario produced no trips; determinism check is vacuous")
	}

	check := func(name string, got fingerprint) {
		t.Helper()
		if !reflect.DeepEqual(base, got) {
			t.Errorf("%s: fingerprint diverges from serial baseline\nbase:  %+v\ngot:   %+v", name, base, got)
		}
	}

	check("rerun-serial", runDetScenario(t, 1, 1, nil))
	// Sweep ControlWorkers at several tick worker counts: the acceptance
	// contract is byte-identical output across ControlWorkers ∈ {1, 4, 16}.
	check("tick-8/ctrl-4", runDetScenario(t, 8, 4, nil))
	check("tick-3/ctrl-16", runDetScenario(t, 3, 16, nil))
	check("tick-8/ctrl-1", runDetScenario(t, 8, 1, nil))
	// Telemetry must not perturb outcomes at any parallelism.
	check("telemetry/ctrl-4", runDetScenario(t, 8, 4, telemetry.NewSink()))
	check("telemetry/ctrl-16", runDetScenario(t, 4, 16, telemetry.NewSink()))

	// Checkpointing must not perturb outcomes either (the act-phase
	// ordering rule), and the store's streams must themselves be
	// byte-identical across worker counts.
	ckptFP, ckptDigest := runDetScenarioCkpt(t, 1, 1, nil, true)
	check("checkpoint/serial", ckptFP)
	if len(ckptDigest) == 0 {
		t.Fatal("checkpointing produced no streams; determinism check is vacuous")
	}
	fp84, dig84 := runDetScenarioCkpt(t, 8, 4, nil, true)
	check("checkpoint/tick-8/ctrl-4", fp84)
	fp316, dig316 := runDetScenarioCkpt(t, 3, 16, nil, true)
	check("checkpoint/tick-3/ctrl-16", fp316)
	fpTel, digTel := runDetScenarioCkpt(t, 8, 4, telemetry.NewSink(), true)
	check("checkpoint/telemetry", fpTel)
	for name, dig := range map[string]map[string][]uint64{
		"tick-8/ctrl-4": dig84, "tick-3/ctrl-16": dig316, "telemetry": digTel,
	} {
		if !reflect.DeepEqual(ckptDigest, dig) {
			t.Errorf("checkpoint streams diverge from serial baseline at %s", name)
		}
	}

	// Worker counts of 0 defer to GOMAXPROCS; sweeping it proves the
	// deployment's core count never leaks into results.
	old := runtime.GOMAXPROCS(1)
	got1 := runDetScenario(t, 0, 0, nil) // 0 → GOMAXPROCS = 1 worker
	fpCk1, digCk1 := runDetScenarioCkpt(t, 0, 0, nil, true)
	runtime.GOMAXPROCS(8)
	got8 := runDetScenario(t, 0, 0, nil) // 0 → GOMAXPROCS = 8 workers
	gotTel := runDetScenario(t, 0, 0, telemetry.NewSink())
	fpCk8, digCk8 := runDetScenarioCkpt(t, 0, 0, nil, true)
	runtime.GOMAXPROCS(old)
	check("gomaxprocs-1", got1)
	check("gomaxprocs-8", got8)
	check("gomaxprocs-8/telemetry", gotTel)
	check("gomaxprocs-1/checkpoint", fpCk1)
	check("gomaxprocs-8/checkpoint", fpCk8)
	if !reflect.DeepEqual(digCk1, ckptDigest) || !reflect.DeepEqual(digCk8, ckptDigest) {
		t.Error("checkpoint streams diverge across GOMAXPROCS")
	}
}

// TestSnapshotMatchesOracleOnRandomTopology cross-checks the bottom-up
// snapshot aggregation against the original subtree-walk oracle on
// randomized topologies, including while DCUPS recharges are active.
func TestSnapshotMatchesOracleOnRandomTopology(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 4; trial++ {
		spec := topology.DefaultSpec()
		spec.MSBs = 1 + rng.Intn(2)
		spec.SBsPerMSB = 1 + rng.Intn(3)
		spec.RPPsPerSB = 1 + rng.Intn(3)
		spec.RacksPerRPP = 1 + rng.Intn(3)
		spec.ServersPerRack = 4 + rng.Intn(12)
		spec.SwitchPerRack = trial%2 == 0
		s, err := New(Config{
			Spec:             spec,
			Seed:             int64(trial + 1),
			CappableSwitches: trial == 2,
			TickWorkers:      1 + rng.Intn(8),
		})
		if err != nil {
			t.Fatal(err)
		}
		rack := s.Topo.OfKind(topology.KindRack)[rng.Intn(len(s.Topo.OfKind(topology.KindRack)))]
		s.At(90*time.Second, func() { s.RestoreDevice(rack.ID) }) // start a recharge
		for _, stop := range []time.Duration{time.Minute, time.Minute, time.Minute} {
			s.Run(stop)
			for _, dev := range s.Topo.Devices() {
				snap := float64(s.DevicePower(dev.ID))
				oracle := float64(s.devicePowerWalk(dev.ID))
				if diff := math.Abs(snap - oracle); diff > 1e-6*(1+math.Abs(oracle)) {
					t.Fatalf("trial %d: device %s snapshot %.9f != oracle %.9f", trial, dev.ID, snap, oracle)
				}
			}
			// The root is outside the device index; DevicePower must still
			// answer through the oracle fallback.
			if root := float64(s.DevicePower(s.Topo.Root.ID)); root <= 0 {
				t.Fatalf("trial %d: root power %v", trial, root)
			}
		}
	}
}

// TestOracleModeMatchesSnapshotMode checks, on every tick of a seeded
// scenario running through a surge, breaker trips, the outage they cause
// and a RestoreDevice with its DCUPS recharges, that the draw each breaker
// was fed from the snapshot equals the subtree-walk oracle — so a sim
// whose breakers read the walk would trip the same devices at the same
// instants.
func TestOracleModeMatchesSnapshotMode(t *testing.T) {
	s, err := New(Config{Spec: detSpec(), Seed: 11, TickWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	rpp := s.Topo.OfKind(topology.KindRPP)[0]
	s.At(time.Minute, func() { s.SetExtraLoadUnder(rpp.ID, 0.9) })
	s.At(5*time.Minute, func() { s.RestoreDevice(rpp.ID) })
	for s.Loop.Now() < 8*time.Minute {
		s.Run(s.Cfg.TickInterval)
		for i, devID := range s.deviceOrder {
			// Draws may differ by float summation order only.
			got, oracle := float64(s.snap.dev[s.devSnapIdx[i]]), float64(s.devicePowerWalk(devID))
			if diff := math.Abs(got - oracle); diff > 1e-6*oracle {
				t.Fatalf("at %v: breaker %s observed %.9f, oracle %.9f", s.Loop.Now(), devID, got, oracle)
			}
		}
	}
	if len(s.Trips) == 0 {
		t.Fatal("scenario produced no trips; equivalence check is vacuous")
	}
	if len(s.recharges) == 0 {
		t.Fatal("no DCUPS recharge was active at the end; the restore leg is vacuous")
	}
}

// TestShardedStepAcrossTickIntervalChange runs a fleet large enough to
// shard at one tick worker and at four through a 30 s fast-forward, the
// switch to a 1 s tick and a load-factor event that lands between ticks,
// and compares every server's draw and every device's snapshot after every
// tick, bit for bit. The per-service values the servers read (workload
// Shared's det and OU coefficients) are re-keyed by the switch; under
// -race this also proves the sharded step only reads them.
func TestShardedStepAcrossTickIntervalChange(t *testing.T) {
	build := func(workers int) *Sim {
		s, err := New(Config{
			Spec: detSpec(), Seed: 5, TickInterval: 30 * time.Second,
			TickWorkers: workers, DisableTripOutage: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(s.tickList) < parallelTickMin {
			t.Fatalf("%d servers do not reach the sharded path (parallelTickMin %d)", len(s.tickList), parallelTickMin)
		}
		s.At(5*time.Minute-30*time.Second, func() { s.SetTickInterval(time.Second) })
		s.At(5*time.Minute+10*time.Second+500*time.Millisecond, func() { s.SetServiceLoadFactor("web", 1.3) })
		s.Start()
		return s
	}
	serial, sharded := build(1), build(4)
	for serial.Loop.Now() < 6*time.Minute {
		step := serial.Cfg.TickInterval
		serial.Loop.RunFor(step)
		sharded.Loop.RunFor(step)
		now := serial.Loop.Now()
		for i, sv := range serial.tickList {
			if a, b := float64(sv.Power()), float64(sharded.tickList[i].Power()); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("at %v: server %s draws %v serial, %v sharded", now, sv.ID(), a, b)
			}
		}
		for i, a := range serial.snap.dev {
			if b := sharded.snap.dev[i]; math.Float64bits(float64(a)) != math.Float64bits(float64(b)) {
				t.Fatalf("at %v: device %s snapshot %v serial, %v sharded", now, serial.agg[i].id, a, b)
			}
		}
	}
	if got := serial.Cfg.TickInterval; got != time.Second {
		t.Fatalf("tick interval %v at the end; the switch never happened", got)
	}
	if f := serial.Shared["web"].LoadFactor(); f != 1.3 {
		t.Fatalf("web load factor %v at the end; the event never fired", f)
	}
}
