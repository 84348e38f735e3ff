package core

import (
	"testing"
	"time"

	"dynamo/internal/power"
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

// TestFailoverWaitsForFirstReply starts a backup before its primary: no
// probe has had a reply, so none counts as a miss and the backup waits.
// Once the primary has answered, its crash promotes as usual.
func TestFailoverWaitsForFirstReply(t *testing.T) {
	f := newFixture(t)
	refs := f.addFleet(3, "web", 0.5)
	backup := NewLeaf(f.loop, LeafConfig{DeviceID: "rpp1", Limit: power.KW(50)}, f.refs())
	fo := NewFailover(f.loop, f.net, []Controller{backup}, FailoverConfig{Alerts: f.alertSink()})
	fo.Start()
	f.loop.RunUntil(time.Minute)
	if fo.Promoted() {
		t.Fatal("backup promoted over a primary that never answered")
	}
	primary := NewLeaf(f.loop, LeafConfig{DeviceID: "rpp1", Limit: power.KW(50)}, refs)
	f.net.Register(CtrlAddr("rpp1"), primary.Handler())
	primary.Start()
	f.loop.RunUntil(90 * time.Second)
	if fo.Promoted() {
		t.Fatal("backup promoted while the primary was healthy")
	}
	f.net.Unregister(CtrlAddr("rpp1"))
	primary.Stop()
	f.loop.RunUntil(2 * time.Minute)
	if !fo.Promoted() {
		t.Fatal("backup not promoted after the primary went down")
	}
}
