package sim

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"dynamo/internal/power"
	"dynamo/internal/topology"
)

// TestSnapshotMatchesWalkEveryTickOnRandomTopology is the aggregation
// pass's cross-check: on randomized topologies, through quiescent
// stretches, load bursts, capping episodes, breaker trips, and DCUPS
// recharges, every device's snapshot entry must equal the independent
// subtree walk after every tick (the two differ by float summation order
// only).
func TestSnapshotMatchesWalkEveryTickOnRandomTopology(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	trips := 0
	for trial := 0; trial < 3; trial++ {
		spec := topology.DefaultSpec()
		spec.MSBs = 1
		spec.SBsPerMSB = 1 + rng.Intn(2)
		spec.RPPsPerSB = 1 + rng.Intn(3)
		spec.RacksPerRPP = 1 + rng.Intn(3)
		spec.ServersPerRack = 8 + rng.Intn(25)
		spec.SwitchPerRack = trial%2 == 0
		// Tight enough that the surge forces capping; the last trial's racks
		// (which no controller protects) are tight enough to trip.
		rackPerServer := 330.0
		if trial == 2 {
			rackPerServer = 260
		}
		spec.RackRating = power.Watts(float64(spec.ServersPerRack) * rackPerServer)
		spec.RPPRating = power.Watts(float64(spec.ServersPerRack*spec.RacksPerRPP) * 280)
		seed := rng.Int63n(1000) + 1
		workers := 1 + rng.Intn(8)
		surge := 0.7 + 0.2*rng.Float64()

		s, err := New(Config{
			Spec:             spec,
			Seed:             seed,
			EnableDynamo:     true,
			TickWorkers:      workers,
			CappableSwitches: trial == 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		rpp := s.Topo.OfKind(topology.KindRPP)[0]
		s.At(time.Minute, func() { s.SetExtraLoadUnder(rpp.ID, surge) })
		s.At(3*time.Minute, func() { s.SetExtraLoadUnder(rpp.ID, 0) })
		s.At(4*time.Minute, func() { s.RestoreDevice(rpp.ID) })

		capped, recharging := false, false
		for s.Loop.Now() < 330*time.Second {
			s.Run(s.Cfg.TickInterval)
			s.refresh() // a restore at this instant invalidated the tick's pass
			for i := range s.agg {
				snap := float64(s.snap.dev[i])
				walk := float64(s.devicePowerWalk(s.agg[i].id))
				if diff := math.Abs(snap - walk); diff > 1e-6*math.Abs(walk) {
					t.Fatalf("trial %d at %v: device %s snapshot %.9f != walk %.9f",
						trial, s.Loop.Now(), s.agg[i].id, snap, walk)
				}
			}
			capped = capped || s.CappedServerCount() > 0
			recharging = recharging || len(s.recharges) > 0
		}
		trips += len(s.Trips)
		if !capped {
			t.Errorf("trial %d: no server was ever capped; the capping leg is vacuous", trial)
		}
		if !recharging {
			t.Errorf("trial %d: no DCUPS recharge was ever active; the restore leg is vacuous", trial)
		}
	}
	if trips == 0 {
		t.Error("no breaker tripped in any trial; the trip and outage leg is vacuous")
	}
}

// TestDrawSliceTracksServers holds the aggregation pass's draw slice to the
// servers it mirrors after every tick, at one tick worker and at four,
// through a 30 s → 1 s tick change, a capping episode, a trip outage with
// its crashes, and a RestoreDevice with its reboots and recharges.
func TestDrawSliceTracksServers(t *testing.T) {
	for _, workers := range []int{1, 4} {
		s, err := New(Config{
			Spec: detSpec(), Seed: 42, EnableDynamo: true,
			TickInterval: 30 * time.Second, TickWorkers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		rpp := s.Topo.OfKind(topology.KindRPP)[0]
		s.At(90*time.Second, func() { s.SetTickInterval(time.Second) })
		s.At(2*time.Minute, func() { s.SetExtraLoadUnder(rpp.ID, 0.9) })
		s.At(7*time.Minute, func() { s.SetExtraLoadUnder(rpp.ID, 0) })
		s.At(8*time.Minute, func() { s.RestoreDevice(rpp.ID) })
		s.Start()
		capped, crashed := false, false
		for s.Loop.Now() < 9*time.Minute {
			s.Loop.RunFor(s.Cfg.TickInterval)
			for i, sv := range s.tickList {
				if a, b := float64(s.snap.draw[i]), float64(sv.Power()); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("workers %d at %v: draw[%d] = %v, server %s draws %v", workers, s.Loop.Now(), i, a, sv.ID(), b)
				}
				crashed = crashed || sv.Crashed()
			}
			capped = capped || s.CappedServerCount() > 0
		}
		if !capped || !crashed || len(s.Trips) == 0 || len(s.recharges) == 0 || s.Cfg.TickInterval != time.Second {
			t.Fatalf("workers %d: capped %v, crashed %v, trips %d, recharges %d, tick %v; a leg is vacuous",
				workers, capped, crashed, len(s.Trips), len(s.recharges), s.Cfg.TickInterval)
		}
	}
}

// TestTickAllocs: a steady-state serial tick allocates nothing, so the
// fleet arrays and the draw slice are reused, never rebuilt. The 10k case
// is BenchmarkSimTick10k/snapshot-serial's sim, validators and recording
// included.
func TestTickAllocs(t *testing.T) {
	small, err := New(Config{Spec: topology.DefaultSpec().Scale(300), Seed: 1, TickWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	small.Run(2 * time.Second)
	for _, s := range []*Sim{small, newTick10k(t, 1)} {
		if n := testing.AllocsPerRun(20, func() { s.Run(s.Cfg.TickInterval) }); n != 0 {
			t.Fatalf("a serial tick of %d servers allocates %v times", len(s.tickList), n)
		}
	}
}

// TestDevicePowerSubtreeRefresh checks a DevicePower read between ticks:
// it answers for the instant of the read (an active recharge has decayed
// since the last tick), matching the side-effect-free walk, and it leaves
// every later tick's recorded series byte-identical to a run without the
// read.
func TestDevicePowerSubtreeRefresh(t *testing.T) {
	spec := topology.DefaultSpec()
	spec.MSBs, spec.SBsPerMSB, spec.RPPsPerSB = 1, 1, 2
	spec.RacksPerRPP, spec.ServersPerRack = 2, 8

	run := func(probe bool) (series [][]float64, probed bool) {
		s, err := New(Config{Spec: spec, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		rack := s.Topo.OfKind(topology.KindRack)[0]
		s.Record(time.Second, rack.ID, rack.Parent.ID)
		s.At(61*time.Second, func() { s.RestoreDevice(rack.ID) }) // start a recharge
		if probe {
			s.At(90*time.Second+500*time.Millisecond, func() {
				probed = true
				if s.snap.at == s.Loop.Now() {
					t.Fatal("probe landed on a tick instant; staleness check is vacuous")
				}
				atTick := float64(s.snap.dev[s.aggIdx[rack.ID]])
				got := float64(s.DevicePower(rack.ID))
				walk := float64(s.devicePowerWalk(rack.ID))
				if diff := math.Abs(got - walk); diff > 1e-6*math.Abs(walk) {
					t.Errorf("rack power read between ticks %.9f != walk %.9f", got, walk)
				}
				if got >= atTick {
					t.Errorf("read between ticks %.9f did not follow the recharge decay from the tick's %.9f", got, atTick)
				}
			})
		}
		s.Run(2 * time.Minute)
		for _, id := range []topology.NodeID{rack.ID, rack.Parent.ID} {
			series = append(series, s.Series(id).Values())
		}
		return series, probed
	}

	with, probed := run(true)
	if !probed {
		t.Fatal("probe callback never ran")
	}
	without, _ := run(false)
	if !reflect.DeepEqual(with, without) {
		t.Error("a DevicePower read between ticks changed the recorded series")
	}
}

// TestShardedTickAllocs: a physics tick sharded over two workers
// allocates nothing — each shard's function is bound once, and the wait
// group is the sim's own.
func TestShardedTickAllocs(t *testing.T) {
	s, err := New(Config{Spec: topology.DefaultSpec().Scale(2 * parallelTickMin), Seed: 1, TickWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.tickList) < parallelTickMin {
		t.Fatalf("%d servers do not reach the sharded path (parallelTickMin %d)", len(s.tickList), parallelTickMin)
	}
	now := s.Loop.Now()
	tick := func() {
		now += s.Cfg.TickInterval
		for _, svc := range s.sharedOrder { // the pre-shard pass the shards read
			s.Shared[svc].Advance(now)
		}
		s.tickServers(now)
	}
	tick()
	if n := testing.AllocsPerRun(100, tick); n != 0 {
		t.Errorf("a tick sharded over 2 workers allocates %v times, want 0", n)
	}
}
