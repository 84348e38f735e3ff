package core

import (
	"testing"
	"time"

	"dynamo/internal/power"
	"dynamo/internal/statestore"
)

func TestFailoverPromotesBackup(t *testing.T) {
	f := newFixture(t)
	refs := f.addFleet(5, "web", 0.6)
	primary := NewLeaf(f.loop, LeafConfig{DeviceID: "rpp1", Limit: power.KW(50)}, refs)
	backup := NewLeaf(f.loop, LeafConfig{DeviceID: "rpp1", Limit: power.KW(50)}, f.refs())
	f.net.Register(CtrlAddr("rpp1"), primary.Handler())
	primary.Start()
	fo := NewFailover(f.loop, f.net, []Controller{backup}, FailoverConfig{
		PingInterval: 3 * time.Second, Alerts: f.alertSink(),
	})
	fo.Start()
	f.loop.RunUntil(30 * time.Second)
	if fo.Promoted() {
		t.Fatal("backup promoted while primary healthy")
	}
	// Primary crashes: stops cycling and reports unhealthy.
	primary.Stop()
	f.loop.RunUntil(60 * time.Second)
	if !fo.Promoted() {
		t.Fatal("backup not promoted after primary crash")
	}
	if !backup.Running() {
		t.Fatal("backup not started")
	}
	f.loop.RunUntil(90 * time.Second)
	if backup.Cycles() == 0 {
		t.Error("backup should be aggregating")
	}
	// The controller address now serves the backup.
	agg, valid := backup.LastAggregate()
	if !valid || agg <= 0 {
		t.Errorf("backup aggregate = %v/%v", agg, valid)
	}
	sawPromo := false
	for _, a := range f.alerts {
		if a.Level == AlertCritical && (a.Kind == KindPromoted || a.Kind == KindPromotedFresh) {
			sawPromo = true
		}
	}
	if !sawPromo {
		t.Error("expected promotion alert")
	}
}

func TestFailoverUnreachablePrimary(t *testing.T) {
	f := newFixture(t)
	refs := f.addFleet(3, "web", 0.5)
	primary := NewLeaf(f.loop, LeafConfig{DeviceID: "rpp1", Limit: power.KW(50)}, refs)
	backup := NewLeaf(f.loop, LeafConfig{DeviceID: "rpp1", Limit: power.KW(50)}, f.refs())
	f.net.Register(CtrlAddr("rpp1"), primary.Handler())
	primary.Start()
	fo := NewFailover(f.loop, f.net, []Controller{backup}, FailoverConfig{Alerts: f.alertSink()})
	fo.Start()
	f.loop.RunUntil(10 * time.Second)
	// Hard crash: the address stops answering entirely.
	f.net.Unregister(CtrlAddr("rpp1"))
	primary.Stop()
	f.loop.RunUntil(60 * time.Second)
	if !fo.Promoted() {
		t.Fatal("backup not promoted after primary became unreachable")
	}
}

// TestPromotedStandbyKeepsLeasedCaps runs a failover pair with the
// defaults dynamo-suited runs: a 3 s poll and probe, promotion after three
// missed probes, and a 12 s cap lease. The primary stops mid-episode just
// before its next pull, so detection takes most of a TTL after the last
// renewal: a backup whose first pull came one poll after promotion would
// find every lease expired and the caps lapsed. No lease may expire.
func TestPromotedStandbyKeepsLeasedCaps(t *testing.T) {
	f := newFixture(t)
	refs := f.addFleet(10, "web", 0.8) // ~2.95 kW, over the 2.8 kW limit
	expiries := 0
	for _, id := range f.order {
		f.agents[id].EnableLease(f.loop, 0, func(string, power.Watts) { expiries++ })
	}
	store := statestore.NewStore(f.loop, "local", nil)
	cfg := func(role string) LeafConfig {
		return LeafConfig{DeviceID: "rpp1", Limit: 2800, CapLeaseTTL: 12 * time.Second,
			Checkpoint: store.NewWriter("rpp1", role), Alerts: f.alertSink()}
	}
	primary := NewLeaf(f.loop, cfg("primary"), refs)
	backup := NewLeaf(f.loop, cfg("backup"), f.refs())
	f.net.Register(CtrlAddr("rpp1"), primary.Handler())
	primary.Start()
	fo := NewFailover(f.loop, f.net, []Controller{backup}, FailoverConfig{Store: store, Alerts: f.alertSink()})
	fo.Start()

	// The primary's pulls run every 3 s; it dies 0.1 s before the one due
	// at 39 s, 2.9 s after its last renewal.
	f.loop.RunUntil(38900 * time.Millisecond)
	capped := primary.CappedCount()
	if capped == 0 {
		t.Fatal("the primary holds no caps: no episode to fail over in")
	}
	primary.Stop()
	f.net.Unregister(CtrlAddr("rpp1"))
	f.loop.RunUntil(80 * time.Second)
	if !fo.Promoted() {
		t.Fatal("backup not promoted")
	}
	if expiries != 0 {
		t.Fatalf("%d cap leases expired across the failover", expiries)
	}
	if got := backup.CappedCount(); got != capped {
		t.Fatalf("the backup holds %d caps, the primary held %d", got, capped)
	}
}
