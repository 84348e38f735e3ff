package sim

import (
	"testing"
	"time"

	"dynamo/internal/topology"
)

// BenchmarkAggregation measures computing every device's draw for a
// ~2000-server data center: the one bottom-up snapshot pass (O(N))
// against per-device subtree walks (O(N × depth)).
func BenchmarkAggregation(b *testing.B) {
	s, err := New(Config{Spec: topology.DefaultSpec().Scale(2000), Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	s.Run(2 * time.Second)
	now := s.Loop.Now()
	b.Run("snapshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.aggregate(now)
		}
	})
	b.Run("treewalk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, devID := range s.deviceOrder {
				_ = s.devicePowerWalk(devID)
			}
		}
	})
}

// BenchmarkSimTick10k measures the physics tick on a 10k-server fleet:
// one tick per iteration, with validators and device recording enabled as
// the figure experiments use them. snapshot shards the server step across
// GOMAXPROCS workers; snapshot-serial ticks on one (on a single-core
// machine they coincide).
func BenchmarkSimTick10k(b *testing.B) {
	run := func(b *testing.B, workers int) {
		s := newTick10k(b, workers)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Run(s.Cfg.TickInterval)
		}
		b.ReportMetric(float64(len(s.serverOrder)), "servers")
	}
	b.Run("snapshot", func(b *testing.B) { run(b, 0) })
	b.Run("snapshot-serial", func(b *testing.B) { run(b, 1) })
}

// newTick10k builds BenchmarkSimTick10k's sim (the open_loop_10k fleet,
// validators every 30 s, every RPP recorded every 5 s) and runs it one
// tick, which arms the ticker.
func newTick10k(tb testing.TB, workers int) *Sim {
	s, err := New(Config{
		Spec:              topology.DefaultSpec().Scale(10000),
		Seed:              1,
		TickWorkers:       workers,
		ValidatorInterval: 30 * time.Second,
	})
	if err != nil {
		tb.Fatal(err)
	}
	var recID []topology.NodeID
	for _, n := range s.Topo.OfKind(topology.KindRPP) {
		recID = append(recID, n.ID)
	}
	s.Record(5*time.Second, recID...)
	s.Run(time.Second)
	return s
}

// BenchmarkSimDay measures simulating one day of 40 servers under Dynamo
// at a 3 s tick (physics and control).
func BenchmarkSimDay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		spec := topology.DefaultSpec()
		spec.MSBs, spec.SBsPerMSB, spec.RPPsPerSB = 1, 1, 2
		spec.RacksPerRPP, spec.ServersPerRack = 2, 10
		s, err := New(Config{Spec: spec, Seed: int64(i), EnableDynamo: true})
		if err != nil {
			b.Fatal(err)
		}
		s.SetTickInterval(3 * time.Second)
		b.StartTimer()
		s.Run(24 * time.Hour)
	}
}
