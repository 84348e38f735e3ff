package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"dynamo/internal/core"
	"dynamo/internal/faults"
	"dynamo/internal/power"
	"dynamo/internal/telemetry"
	"dynamo/internal/topology"
)

// chaosRetry is the bounded retry policy used by the chaos scenarios:
// two extra attempts with fast, deterministically-jittered backoff.
func chaosRetry() core.RetryConfig {
	return core.RetryConfig{MaxRetries: 2, Backoff: 50 * time.Millisecond, JitterFrac: 0.2}
}

// TestChaosPartitionDuringCapping is the issue's acceptance scenario: a
// leaf's whole agent fleet is partitioned in the middle of a capping
// episode. The leaf must degrade to estimation via quarantine (no
// invalid-cycle flood), the orphaned caps must lease-expire on the agents,
// no breaker may trip, and after the heal the hierarchy must reconverge —
// agents re-admitted, caps re-established.
func TestChaosPartitionDuringCapping(t *testing.T) {
	const (
		leaseTTL       = 15 * time.Second
		partitionStart = 4 * time.Minute
		partitionEnd   = partitionStart + 90*time.Second
	)
	spec := tinySpec()
	spec.RPPRating = power.KW(2.4) // tight: overload forces a capping episode
	s, err := New(Config{
		Spec:                spec,
		Seed:                7,
		EnableDynamo:        true,
		ControlRetry:        chaosRetry(),
		QuarantineThreshold: 2,
		CapLeaseTTL:         leaseTTL,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, svc := range []string{"web", "cache", "hadoop", "database", "newsfeed"} {
		s.SetServiceLoadFactor(svc, 1.6)
	}
	rpp := s.Topo.OfKind(topology.KindRPP)[0]
	leaf := s.Hierarchy.Leaf(rpp.ID)
	nAgents := len(s.Topo.ServersUnder(rpp.ID))

	// Cut the leaf off from every one of its agents mid-episode.
	s.Faults.Add(faults.Partition("agent/"+string(rpp.ID)+"/*", partitionStart, partitionEnd))

	s.Run(partitionStart)
	if s.CappedServerCount() == 0 {
		t.Fatal("no capping episode before the partition; scenario is vacuous")
	}
	if leaf.CappedCount() == 0 {
		t.Fatal("target leaf has no capped agents before the partition")
	}

	// Mid-partition (past trip-in and lease TTL): the fleet is quarantined
	// and the orphaned caps have expired on the agents' side.
	s.Run(60 * time.Second)
	if got := leaf.QuarantinedCount(); got != nAgents {
		t.Errorf("mid-partition quarantined = %d, want all %d agents", got, nAgents)
	}
	if _, valid := leaf.LastAggregate(); !valid {
		t.Error("mid-partition cycle invalid: quarantine should hand the fleet to estimation")
	}
	if s.LeaseExpiries() == 0 {
		t.Error("no cap lease expired during the partition despite TTL << partition length")
	}

	// Ride out the heal and reconverge.
	s.Run(10*time.Minute - s.Loop.Now())
	if len(s.Trips) != 0 {
		t.Fatalf("breaker tripped during the chaos episode: %+v", s.Trips)
	}
	if got := leaf.QuarantinedCount(); got != 0 {
		t.Errorf("%d agents still quarantined after heal", got)
	}
	if _, valid := leaf.LastAggregate(); !valid {
		t.Error("aggregation invalid after heal")
	}
	if leaf.CappedCount() == 0 {
		t.Error("no caps re-established after heal despite sustained overload")
	}

	// No invalid-cycle flood: only the trip-in window (threshold 2) may
	// emit invalid-aggregation criticals for the target leaf.
	invalid := 0
	for _, a := range s.Alerts {
		if a.Controller == string(rpp.ID) && a.Kind == core.KindPullsFailed {
			invalid++
		}
	}
	if invalid > 3 {
		t.Errorf("invalid-cycle flood: %d critical aggregation alerts from the partitioned leaf", invalid)
	}
	sawQuarantine, sawReadmit, sawLease := false, false, false
	for _, a := range s.Alerts {
		switch a.Kind {
		case core.KindQuarantined:
			sawQuarantine = true
		case core.KindReadmitted:
			sawReadmit = true
		case core.KindLeaseExpired:
			sawLease = true
		}
	}
	if !sawQuarantine || !sawReadmit || !sawLease {
		t.Errorf("alert coverage: quarantine=%v readmit=%v lease=%v", sawQuarantine, sawReadmit, sawLease)
	}
}

// chaosSchedule is the non-trivial fault schedule for the determinism
// sweep: background drop/delay/dup noise on every agent pull plus a timed
// partition of one leaf's fleet — every injector code path is live.
func chaosSchedule(t *testing.T, rppID string) []faults.Rule {
	t.Helper()
	rules, err := faults.Parse(fmt.Sprintf(`
# background noise on every agent pull
drop  agent/* Agent.ReadPower ..   p=0.05
delay agent/* *               ..   d=40ms j=30ms
dup   agent/* Agent.ReadPower ..   p=0.03
# cut one leaf's fleet off mid-scenario
partition agent/%s/* 3m..4m30s
`, rppID))
	if err != nil {
		t.Fatal(err)
	}
	return rules
}

// runChaosDetScenario mirrors runDetScenarioCkpt with the fault schedule,
// retries, quarantine, and cap leases all enabled.
func runChaosDetScenario(t *testing.T, workers, ctrlWorkers int, tel *telemetry.Sink) (fingerprint, map[string][]uint64) {
	t.Helper()
	spec := detSpec()
	s, err := New(Config{
		Spec:                spec,
		Seed:                42,
		EnableDynamo:        true,
		TickWorkers:         workers,
		Hierarchy:           core.HierarchyConfig{ControlWorkers: ctrlWorkers},
		Telemetry:           tel,
		Checkpoint:          true,
		ControlRetry:        chaosRetry(),
		QuarantineThreshold: 2,
		CapLeaseTTL:         15 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	rpp := s.Topo.OfKind(topology.KindRPP)[0]
	s.Faults.Add(chaosSchedule(t, string(rpp.ID))...)
	s.Record(5*time.Second, rpp.ID, rpp.Parent.ID)
	s.At(time.Minute, func() { s.SetExtraLoadUnder(rpp.ID, 0.9) })
	s.At(6*time.Minute, func() { s.SetExtraLoadUnder(rpp.ID, 0) })
	s.Run(8 * time.Minute)

	fp := fingerprint{
		Trips:  s.Trips,
		Alerts: len(s.Alerts),
		Series: map[topology.NodeID][]float64{},
		Total:  float64(s.TotalPower()),
	}
	for _, id := range []topology.NodeID{rpp.ID, rpp.Parent.ID} {
		fp.Series[id] = append([]float64(nil), s.Series(id).Values()...)
	}
	dropped, delayed, duplicated := s.Faults.Counts()
	if dropped == 0 || delayed == 0 || duplicated == 0 {
		t.Fatalf("fault schedule barely exercised: dropped=%d delayed=%d duplicated=%d",
			dropped, delayed, duplicated)
	}
	return fp, storeDigest(s.Store)
}

// TestSimDeterminismGoldenWithFaults extends the determinism contract to
// the robustness layer: with a non-trivial fault schedule, bounded
// retries, quarantine, and cap leases all active, the same seed must
// produce byte-identical trips, alerts, series, and state-store streams
// across tick workers × control workers × GOMAXPROCS × telemetry.
func TestSimDeterminismGoldenWithFaults(t *testing.T) {
	base, baseDig := runChaosDetScenario(t, 1, 1, nil)
	if len(baseDig) == 0 {
		t.Fatal("no checkpoint streams; determinism check is vacuous")
	}

	check := func(name string, got fingerprint, dig map[string][]uint64) {
		t.Helper()
		if !reflect.DeepEqual(base, got) {
			t.Errorf("%s: fingerprint diverges from serial baseline\nbase: %+v\ngot:  %+v", name, base, got)
		}
		if !reflect.DeepEqual(baseDig, dig) {
			t.Errorf("%s: checkpoint streams diverge from serial baseline", name)
		}
	}

	fp, dig := runChaosDetScenario(t, 1, 1, nil)
	check("rerun-serial", fp, dig)
	fp, dig = runChaosDetScenario(t, 8, 4, nil)
	check("tick-8/ctrl-4", fp, dig)
	fp, dig = runChaosDetScenario(t, 3, 16, nil)
	check("tick-3/ctrl-16", fp, dig)
	fp, dig = runChaosDetScenario(t, 8, 4, telemetry.NewSink())
	check("telemetry/ctrl-4", fp, dig)

	old := runtime.GOMAXPROCS(1)
	fp1, dig1 := runChaosDetScenario(t, 0, 0, nil)
	runtime.GOMAXPROCS(8)
	fp8, dig8 := runChaosDetScenario(t, 0, 0, nil)
	runtime.GOMAXPROCS(old)
	check("gomaxprocs-1", fp1, dig1)
	check("gomaxprocs-8", fp8, dig8)
}

// TestChaosSeedChangesFaults: a different injector seed must actually
// change which calls fail — the schedule is probabilistic, not a fixture.
func TestChaosSeedChangesFaults(t *testing.T) {
	run := func(seed int64) (uint64, uint64, uint64) {
		s, err := New(Config{
			Spec:         tinySpec(),
			Seed:         seed,
			EnableDynamo: true,
			ControlRetry: chaosRetry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Faults.Add(faults.Rule{Peer: "agent/*", Method: "*", DropP: 0.3})
		s.Run(2 * time.Minute)
		return s.Faults.Counts()
	}
	d1, _, _ := run(1)
	d2, _, _ := run(2)
	if d1 == 0 || d2 == 0 {
		t.Fatalf("drops: %d, %d — schedule not exercised", d1, d2)
	}
	if d1 == d2 {
		t.Errorf("identical drop counts (%d) across seeds; draws look seed-independent", d1)
	}
}
