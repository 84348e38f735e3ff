package sim

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"dynamo/internal/monitor"
	"dynamo/internal/power"
	"dynamo/internal/telemetry"
	"dynamo/internal/topology"
)

// TestIncrementalMatchesFullOnRandomTopology is the tentpole cross-check:
// at epsilon=0 the incremental dirty-subtree pass must produce snapshots
// bitwise identical to a full O(N) rebuild, on randomized topologies,
// through quiescent stretches, load bursts, capping episodes, breaker
// trips, and DCUPS recharges. Two references: a twin run that recomputes
// every device on every tick (runAllDirty), and aggregateFull applied to
// the incremental run's own state at each checkpoint.
func TestIncrementalMatchesFullOnRandomTopology(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 3; trial++ {
		spec := topology.DefaultSpec()
		spec.MSBs = 1
		spec.SBsPerMSB = 1 + rng.Intn(2)
		spec.RPPsPerSB = 1 + rng.Intn(3)
		spec.RacksPerRPP = 1 + rng.Intn(3)
		spec.ServersPerRack = 8 + rng.Intn(25)
		spec.SwitchPerRack = trial%2 == 0
		// Tight enough that the surge forces capping and possibly trips.
		spec.RackRating = power.Watts(float64(spec.ServersPerRack) * 330)
		spec.RPPRating = power.Watts(float64(spec.ServersPerRack*spec.RacksPerRPP) * 280)
		seed := rng.Int63n(1000) + 1
		workers := 1 + rng.Intn(8)
		surge := 0.7 + 0.2*rng.Float64()

		mk := func() *Sim {
			s, err := New(Config{
				Spec:         spec,
				Seed:         seed,
				EnableDynamo: true,
				TickWorkers:  workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			rpp := s.Topo.OfKind(topology.KindRPP)[0]
			s.At(time.Minute, func() { s.SetExtraLoadUnder(rpp.ID, surge) })
			s.At(3*time.Minute, func() { s.SetExtraLoadUnder(rpp.ID, 0) })
			s.At(4*time.Minute, func() { s.RestoreDevice(rpp.ID) })
			return s
		}
		inc, full := mk(), mk()

		for _, step := range []time.Duration{
			90 * time.Second, // surge in progress
			2 * time.Minute,  // post-burst
			2 * time.Minute,  // recharge decaying, quiescent tail
		} {
			inc.Run(step)
			runAllDirty(full, step)
			if fs := full.AggregationStats(); fs.ReaggregatedDevices != fs.Devices {
				t.Fatalf("trial %d: full-rebuild twin recomputed %d of %d devices", trial, fs.ReaggregatedDevices, fs.Devices)
			}
			for _, dev := range inc.Topo.Devices() {
				pi := float64(inc.DevicePower(dev.ID))
				pf := float64(full.DevicePower(dev.ID))
				if pi != pf {
					t.Fatalf("trial %d at %v: device %s incremental %.12f != full %.12f",
						trial, inc.Loop.Now(), dev.ID, pi, pf)
				}
			}
			if ti, tf := inc.TotalPower(), full.TotalPower(); ti != tf {
				t.Fatalf("trial %d at %v: total incremental %v != full %v", trial, inc.Loop.Now(), ti, tf)
			}
			// Rebuilding the incremental run's own snapshot from scratch
			// must change no bit of it.
			inc.refresh()
			got := append([]power.Watts(nil), inc.snap.dev...)
			inc.aggregateFull(inc.Loop.Now())
			for i, want := range inc.snap.dev {
				if got[i] != want {
					t.Fatalf("trial %d at %v: device %s incremental %.12f != aggregateFull %.12f",
						trial, inc.Loop.Now(), inc.agg[i].id, float64(got[i]), float64(want))
				}
			}
		}
		if st := inc.AggregationStats(); st.IncrementalPasses == 0 {
			t.Fatalf("trial %d: incremental sim never took the incremental path", trial)
		}
	}
}

// TestEpsilonDriftBounded checks the epsilon>0 accuracy contract: every
// device's snapshot entry stays within epsilon × (servers in its subtree)
// of the true subtree draw, through bursts, capping, and recharges.
func TestEpsilonDriftBounded(t *testing.T) {
	const eps = power.Watts(3)
	spec := detSpec()
	s, err := New(Config{
		Spec:               spec,
		Seed:               17,
		EnableDynamo:       true,
		TickWorkers:        4,
		AggregationEpsilon: eps,
	})
	if err != nil {
		t.Fatal(err)
	}
	rpp := s.Topo.OfKind(topology.KindRPP)[0]
	s.At(2*time.Minute, func() { s.SetExtraLoadUnder(rpp.ID, 0.9) })
	s.At(5*time.Minute, func() { s.SetExtraLoadUnder(rpp.ID, 0) })
	s.At(6*time.Minute, func() { s.RestoreDevice(rpp.ID) })

	maxDrift := 0.0
	for i := 0; i < 8; i++ {
		s.Run(time.Minute)
		s.refresh()
		for _, dev := range s.Topo.Devices() {
			di := s.aggIdx[dev.ID]
			snap := float64(s.snap.dev[di])
			oracle := float64(s.devicePowerWalk(dev.ID))
			drift := math.Abs(snap - oracle)
			if drift > maxDrift {
				maxDrift = drift
			}
			bound := float64(eps)*float64(s.agg[di].subLeaves) + 1e-6*(1+math.Abs(oracle))
			if drift > bound {
				t.Fatalf("at %v: device %s drift %.6f exceeds bound %.6f (eps %v × %d leaves)",
					s.Loop.Now(), dev.ID, drift, bound, eps, s.agg[di].subLeaves)
			}
		}
	}
	if maxDrift == 0 {
		t.Fatal("epsilon=3 run showed zero drift; bound check is vacuous")
	}
	if st := s.AggregationStats(); st.DirtyServers >= st.Servers {
		t.Fatalf("epsilon=3 marked the whole fleet dirty (%d/%d); gating is vacuous",
			st.DirtyServers, st.Servers)
	}
}

// TestDevicePowerSubtreeRefresh asserts the on-demand refresh satellite: a
// mid-tick DevicePower query re-aggregates only the queried device's
// subtree — the global snapshot timestamp stays put, no global pass runs,
// and the answer still tracks time-dependent draw (an active recharge).
func TestDevicePowerSubtreeRefresh(t *testing.T) {
	spec := topology.DefaultSpec()
	spec.MSBs, spec.SBsPerMSB, spec.RPPsPerSB = 1, 1, 2
	spec.RacksPerRPP, spec.ServersPerRack = 2, 8
	s, err := New(Config{Spec: spec, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rack := s.Topo.OfKind(topology.KindRack)[0]
	s.At(61*time.Second, func() { s.RestoreDevice(rack.ID) }) // start a recharge

	probed := false
	s.At(90*time.Second+500*time.Millisecond, func() {
		probed = true
		before := s.AggregationStats()
		snapAt := s.snap.at
		if snapAt == s.Loop.Now() {
			t.Fatal("probe landed on a tick instant; staleness check is vacuous")
		}
		got := float64(s.DevicePower(rack.ID))
		after := s.AggregationStats()

		if s.snap.at != snapAt {
			t.Errorf("subtree refresh advanced the global snapshot timestamp %v -> %v", snapAt, s.snap.at)
		}
		if after.SubtreeRefreshes != before.SubtreeRefreshes+1 {
			t.Errorf("SubtreeRefreshes %d -> %d, want +1", before.SubtreeRefreshes, after.SubtreeRefreshes)
		}
		if after.IncrementalPasses != before.IncrementalPasses || after.FullRebuilds != before.FullRebuilds {
			t.Errorf("mid-tick DevicePower ran a global pass (inc %d->%d, full %d->%d)",
				before.IncrementalPasses, after.IncrementalPasses, before.FullRebuilds, after.FullRebuilds)
		}
		// The refreshed entry reflects the recharge decay at the probe
		// instant, matching the side-effect-free oracle walk.
		oracle := float64(s.devicePowerWalk(rack.ID))
		if diff := math.Abs(got - oracle); diff > 1e-6*(1+math.Abs(oracle)) {
			t.Errorf("refreshed rack power %.9f != oracle %.9f", got, oracle)
		}
		if rec := float64(s.rechargePeek(rack.ID, s.Loop.Now())); rec <= 0 {
			t.Error("no active recharge at probe time; time-dependence check is vacuous")
		}
	})
	s.Run(2 * time.Minute)
	if !probed {
		t.Fatal("probe callback never ran")
	}
}

// TestQuiescenceStats checks the quiescence telemetry: a huge epsilon
// makes every post-warmup tick quiescent (zero dirty servers, zero
// re-aggregated devices), epsilon=0 reports real work, and the monitor
// publishes the converted sample on its gauges.
func TestQuiescenceStats(t *testing.T) {
	spec := topology.DefaultSpec()
	spec.MSBs, spec.SBsPerMSB, spec.RPPsPerSB = 1, 1, 2
	spec.RacksPerRPP, spec.ServersPerRack = 2, 8

	quiet, err := New(Config{Spec: spec, Seed: 4, AggregationEpsilon: power.KW(10)})
	if err != nil {
		t.Fatal(err)
	}
	quiet.Run(2 * time.Minute)
	qs := quiet.AggregationStats()
	if qs.FullRebuilds != 1 {
		t.Errorf("full rebuilds = %d, want exactly the init pass", qs.FullRebuilds)
	}
	if qs.IncrementalPasses == 0 {
		t.Error("no incremental passes recorded")
	}
	if qs.DirtyServers != 0 || qs.ReaggregatedDevices != 0 {
		t.Errorf("10kW epsilon still reports dirty=%d reagg=%d", qs.DirtyServers, qs.ReaggregatedDevices)
	}

	busy, err := New(Config{Spec: spec, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	busy.Run(2 * time.Minute)
	bs := busy.AggregationStats()
	if bs.DirtyServers == 0 || bs.ReaggregatedDevices == 0 {
		t.Errorf("epsilon=0 reports no work (dirty=%d reagg=%d)", bs.DirtyServers, bs.ReaggregatedDevices)
	}
	if bs.WorkloadActivity <= 0 {
		t.Errorf("workload activity hint = %v, want > 0", bs.WorkloadActivity)
	}

	tel := telemetry.NewSink()
	mon := monitor.New(monitor.Config{Telemetry: tel})
	mon.ObserveQuiescence(busy.QuiescenceSample())
	if got := tel.Gauge("dynamo_monitor_dirty_servers").Value(); got != float64(bs.DirtyServers) {
		t.Errorf("dirty-servers gauge = %v, want %d", got, bs.DirtyServers)
	}
	if got := tel.Gauge("dynamo_monitor_reaggregated_devices").Value(); got != float64(bs.ReaggregatedDevices) {
		t.Errorf("reaggregated-devices gauge = %v, want %d", got, bs.ReaggregatedDevices)
	}
	if got := mon.LastQuiescence(); got.Servers != bs.Servers || got.DirtyServers != bs.DirtyServers {
		t.Errorf("LastQuiescence = %+v, want to mirror %+v", got, bs)
	}
}

// TestSnapshotVersionBumpsPerPass checks the snapshot version consumers
// use for change detection: one bump per committed global pass.
func TestSnapshotVersionBumpsPerPass(t *testing.T) {
	spec := topology.DefaultSpec()
	spec.MSBs, spec.SBsPerMSB, spec.RPPsPerSB = 1, 1, 1
	spec.RacksPerRPP, spec.ServersPerRack = 1, 4
	s, err := New(Config{Spec: spec, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(10 * time.Second)
	v := s.SnapshotVersion()
	if v == 0 {
		t.Fatal("snapshot version never bumped")
	}
	s.Run(5 * time.Second) // 5 more ticks at the default 1s interval
	if got := s.SnapshotVersion(); got != v+5 {
		t.Errorf("version advanced %d -> %d over 5 ticks, want +5", v, got)
	}
	if s.TotalPower() <= 0 {
		t.Error("total power not positive")
	}
	if got := s.SnapshotVersion(); got != v+5 {
		t.Errorf("TotalPower bumped the version to %d; lazy total must not re-aggregate", got)
	}
}
