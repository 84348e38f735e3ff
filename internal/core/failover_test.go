package core

import (
	"strings"
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
		PingInterval: 3 * time.Second, FailThreshold: 3, Alerts: f.alertSink(),
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
		if a.Level == AlertCritical && strings.Contains(a.Msg, "backup promoted") {
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

func TestWatchdogRestartsAgent(t *testing.T) {
	f := newFixture(t)
	f.addFleet(5, "web", 0.5)
	restarted := map[string]int{}
	w := NewWatchdog(f.loop, f.net, f.order, WatchdogConfig{
		Interval: 5 * time.Second, FailThreshold: 2,
		Restart: func(id string) {
			restarted[id]++
			// The "init system" restarts the agent process.
			f.restart(id)
		},
		Alerts: f.alertSink(),
	})
	w.Start()
	f.loop.RunUntil(20 * time.Second)
	if w.Restarts() != 0 {
		t.Fatal("no restarts expected while healthy")
	}
	f.crash("web-002")
	f.loop.RunUntil(60 * time.Second)
	if restarted["web-002"] == 0 {
		t.Fatal("crashed agent was not restarted")
	}
	if restarted["web-000"] != 0 {
		t.Error("healthy agent restarted")
	}
	// After the restart the agent serves again and stays healthy.
	count := restarted["web-002"]
	f.loop.RunUntil(120 * time.Second)
	if restarted["web-002"] != count {
		t.Error("agent kept being restarted after heal")
	}
}

func TestWatchdogMultipleFailures(t *testing.T) {
	f := newFixture(t)
	f.addFleet(6, "web", 0.5)
	restarted := map[string]int{}
	w := NewWatchdog(f.loop, f.net, f.order, WatchdogConfig{
		Restart: func(id string) { restarted[id]++; f.restart(id) },
	})
	w.Start()
	f.crash("web-001")
	f.crash("web-004")
	f.loop.RunUntil(2 * time.Minute)
	if restarted["web-001"] == 0 || restarted["web-004"] == 0 {
		t.Errorf("restarts = %v", restarted)
	}
	if w.Restarts() < 2 {
		t.Errorf("total restarts = %d", w.Restarts())
	}
}
