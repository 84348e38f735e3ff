package sim

import (
	"fmt"
	"testing"
	"time"

	"dynamo/internal/topology"
)

// BenchmarkAggregation measures computing every device's draw for a
// ~2000-server data center, the operation the refactor made O(N): one
// bottom-up snapshot pass versus the pre-refactor per-device subtree
// walks (O(N × depth)).
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
			s.aggregateFull(now)
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

// BenchmarkIncrementalAggregation measures the dirty-subtree pass against
// the full rebuild at controlled dirty fractions. Dirty servers are seeded
// synthetically (evenly spaced across the fleet) into the shard lists the
// physics pass normally fills, so each sub-benchmark isolates pure
// aggregation cost: full is the old every-tick O(N) rebuild; quiescent is
// the incremental pass when nothing moved beyond epsilon; dirty-1pct and
// dirty-100pct bound the realistic range in between.
func BenchmarkIncrementalAggregation(b *testing.B) {
	for _, fleet := range []int{2000, 10000} {
		s, err := New(Config{Spec: topology.DefaultSpec().Scale(fleet), Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		s.Run(2 * time.Second) // the first tick's pass recomputes every device
		now := s.Loop.Now()
		n := len(s.tickList)

		seed := func(dirty int) {
			shard := s.shardDirty[0][:0]
			if dirty > 0 {
				stride := n / dirty
				for i := 0; i < n && len(shard) < dirty; i += stride {
					shard = append(shard, i)
				}
			}
			s.shardDirty[0] = shard
		}
		for _, c := range []struct {
			name  string
			dirty int
		}{
			{"quiescent", 0},
			{"dirty-1pct", n / 100},
			{"dirty-100pct", n},
		} {
			b.Run(fmt.Sprintf("%d/%s", fleet, c.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					seed(c.dirty)
					s.aggregateIncremental(now)
				}
				b.ReportMetric(float64(s.statReaggDevices), "reagg-devices")
			})
		}
		b.Run(fmt.Sprintf("%d/full-rebuild", fleet), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.aggregateFull(now)
			}
		})
	}
}

// BenchmarkSimTick10k measures the physics tick on a 10k-server fleet:
// one tick per iteration, with validators and device recording enabled as
// the figure experiments use them. snapshot shards the server step across
// GOMAXPROCS workers; snapshot-serial ticks on one (on a single-core
// machine they coincide).
func BenchmarkSimTick10k(b *testing.B) {
	run := func(b *testing.B, workers int) {
		s, err := New(Config{
			Spec:              topology.DefaultSpec().Scale(10000),
			Seed:              1,
			TickWorkers:       workers,
			ValidatorInterval: 30 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		var recID []topology.NodeID
		for _, n := range s.Topo.OfKind(topology.KindRPP) {
			recID = append(recID, n.ID)
		}
		s.Record(5*time.Second, recID...)
		s.Run(time.Second) // arm the ticker
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Run(s.Cfg.TickInterval)
		}
		b.ReportMetric(float64(len(s.serverOrder)), "servers")
	}
	b.Run("snapshot", func(b *testing.B) { run(b, 0) })
	b.Run("snapshot-serial", func(b *testing.B) { run(b, 1) })
}
