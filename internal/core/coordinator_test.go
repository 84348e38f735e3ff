package core

import (
	"strings"
	"testing"
	"time"

	"dynamo/internal/agent"
	"dynamo/internal/platform"
	"dynamo/internal/power"
	"dynamo/internal/server"
	"dynamo/internal/topology"
	"dynamo/internal/workload"
)

// buildTopoFixture registers an agent for every server in the topology and
// returns the fixture. Loads are driven by the real workload generators.
func buildTopoFixture(t *testing.T, spec topology.Spec) (*fixture, *topology.Topology) {
	t.Helper()
	f := newFixture(t)
	f.loop.SetStepLimit(0)
	topo := spec.MustBuild()
	shared := map[string]*workload.Shared{}
	seed := int64(1)
	for _, srv := range topo.Servers() {
		sh, ok := shared[srv.Service]
		if !ok {
			sh = workload.NewShared(workload.MustLookup(srv.Service), seed)
			shared[srv.Service] = sh
			seed++
		}
		gen := workload.NewGenerator(sh, seed)
		seed++
		sim := server.New(server.Config{
			ID: string(srv.ID), Service: srv.Service,
			Model:  server.MustModel(srv.Generation),
			Source: server.LoadFunc(gen.Step),
		})
		sim.Tick(0)
		f.servers[string(srv.ID)] = sim
		f.order = append(f.order, string(srv.ID))
		plat := platform.NewMSR(sim, platform.Options{Seed: seed})
		ag := agent.New(string(srv.ID), srv.Service, srv.Generation, plat)
		f.net.Register(AgentAddr(string(srv.ID)), ag.Handler())
	}
	return f, topo
}

func smallSpec() topology.Spec {
	spec := topology.DefaultSpec()
	spec.MSBs = 1
	spec.SBsPerMSB = 2
	spec.RPPsPerSB = 2
	spec.RacksPerRPP = 2
	spec.ServersPerRack = 5
	return spec
}

func TestBuildHierarchyShape(t *testing.T) {
	f, topo := buildTopoFixture(t, smallSpec())
	h, err := BuildHierarchy(f.loop, f.net, topo, HierarchyConfig{Alerts: f.alertSink()})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(h.Leaves); got != 4 { // one per RPP
		t.Errorf("leaves = %d, want 4", got)
	}
	if got := len(h.Uppers); got != 3 { // 2 SBs + 1 MSB
		t.Errorf("uppers = %d, want 3", got)
	}
	if h.NumControllers() != 7 {
		t.Errorf("controllers = %d", h.NumControllers())
	}
	rpp := topo.OfKind(topology.KindRPP)[0]
	if h.Leaf(rpp.ID) == nil {
		t.Error("missing leaf for first RPP")
	}
	msb := topo.OfKind(topology.KindMSB)[0]
	if h.Upper(msb.ID) == nil {
		t.Error("missing upper for MSB")
	}
}

func TestBuildHierarchyRackLeaves(t *testing.T) {
	f, topo := buildTopoFixture(t, smallSpec())
	h, err := BuildHierarchy(f.loop, f.net, topo, HierarchyConfig{LeafKind: topology.KindRack})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(h.Leaves); got != 8 { // one per rack
		t.Errorf("leaves = %d, want 8", got)
	}
	if got := len(h.Uppers); got != 7 { // 4 RPP + 2 SB + 1 MSB
		t.Errorf("uppers = %d, want 7", got)
	}
}

func TestBuildHierarchyRejectsNonDeviceLeaf(t *testing.T) {
	f, topo := buildTopoFixture(t, smallSpec())
	if _, err := BuildHierarchy(f.loop, f.net, topo, HierarchyConfig{LeafKind: topology.KindServer}); err == nil {
		t.Fatal("server leaf kind should be rejected")
	}
}

func TestHierarchyRunsAndAggregates(t *testing.T) {
	f, topo := buildTopoFixture(t, smallSpec())
	h, err := BuildHierarchy(f.loop, f.net, topo, HierarchyConfig{
		Alerts:               f.alertSink(),
		NonServerDrawPerRack: 150,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.StartAll()
	f.loop.RunUntil(30 * time.Second)

	var truth power.Watts
	for _, s := range f.servers {
		truth += s.Power()
	}
	msb := topo.OfKind(topology.KindMSB)[0]
	agg, valid := h.Upper(msb.ID).LastAggregate()
	if !valid {
		t.Fatal("MSB aggregation invalid")
	}
	// Aggregate includes switch draw (8 racks × 150 W = 1.2 kW).
	lo := float64(truth) * 0.95
	hi := (float64(truth) + 8*150) * 1.05
	if float64(agg) < lo || float64(agg) > hi {
		t.Errorf("MSB agg %v, truth %v (+switches)", agg, truth)
	}
	h.StopAll()
	cycles := h.Upper(msb.ID).Cycles()
	f.loop.RunUntil(60 * time.Second)
	if h.Upper(msb.ID).Cycles() != cycles {
		t.Error("controllers kept polling after StopAll")
	}
}

func TestFailoverPromotesBackup(t *testing.T) {
	f := newFixture(t)
	refs := f.addFleet(5, "web", 0.6)
	primary := NewLeaf(f.loop, LeafConfig{DeviceID: "rpp1", Limit: power.KW(50)}, refs)
	backup := NewLeaf(f.loop, LeafConfig{DeviceID: "rpp1", Limit: power.KW(50)}, f.refs())
	f.net.Register(CtrlAddr("rpp1"), primary.Handler())
	primary.Start()
	fo := NewFailover(f.loop, f.net, "rpp1", backup, FailoverConfig{
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
	fo := NewFailover(f.loop, f.net, "rpp1", backup, FailoverConfig{Alerts: f.alertSink()})
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
