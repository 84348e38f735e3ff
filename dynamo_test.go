package dynamo

import (
	"testing"
	"time"
)

// TestFacadeSimulation exercises the public API end to end: build a
// simulated data center, run it with Dynamo enabled, and observe the
// hierarchy aggregating power.
func TestFacadeSimulation(t *testing.T) {
	spec := DefaultDatacenterSpec()
	spec.MSBs, spec.SBsPerMSB, spec.RPPsPerSB = 1, 1, 2
	spec.RacksPerRPP, spec.ServersPerRack = 2, 5
	s, err := NewSimulation(SimConfig{Spec: spec, Seed: 7, EnableDynamo: true})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(30 * time.Second)
	if s.TotalPower() <= 0 {
		t.Fatal("no power")
	}
	if s.Hierarchy.NumControllers() != 4 { // 2 leaves + 1 SB + 1 MSB
		t.Errorf("controllers = %d", s.Hierarchy.NumControllers())
	}
}

// TestFacadeManualAssembly builds an agent + leaf controller by hand via
// the façade, the way a downstream integrator would.
func TestFacadeManualAssembly(t *testing.T) {
	loop := NewSimLoop()
	net := NewRPCNetwork(loop, time.Millisecond, 1)

	gens := ServerGenerations()
	if _, ok := gens["haswell2015"]; !ok {
		t.Fatal("missing generation")
	}
	if _, ok := WorkloadProfiles()["web"]; !ok {
		t.Fatal("missing workload profile")
	}

	cfg := DefaultBandConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if DefaultPriorityConfig().BucketSize != 20 {
		t.Error("paper bucket size is 20 W")
	}
	if KW(1) != 1000 || MW(1) != 1e6 {
		t.Error("unit helpers")
	}
	if AgentAddr("x") != "agent/x" || CtrlAddr("y") != "ctrl/y" {
		t.Error("address conventions")
	}

	leaf := NewLeafController(loop, LeafConfig{DeviceID: "rpp", Limit: KW(100)}, nil)
	leaf.Start()
	loop.RunUntil(10 * time.Second)
	if leaf.Cycles() == 0 {
		t.Error("leaf should cycle even with no agents")
	}
	_ = net
}

func TestFacadeSpecs(t *testing.T) {
	if DefaultDatacenterSpec().NumServers() <= 0 {
		t.Error("default spec empty")
	}
	if FullDatacenterSpec().NumServers() < 30000 {
		t.Error("full spec too small")
	}
}

// TestFacadeOperationsSurface exercises the §VI machinery via the façade.
func TestFacadeOperationsSurface(t *testing.T) {
	loop := NewSimLoop()
	net := NewRPCNetwork(loop, time.Millisecond, 1)

	mon := NewPowerMonitor(MonitorConfig{})
	mon.Observe(0, []PowerObservation{{Device: "rpp1", Power: KW(100), Limit: KW(190)}})
	if len(mon.HeadroomReport()) != 1 {
		t.Error("monitor report empty")
	}

	primary := NewLeafController(loop, LeafConfig{DeviceID: "d1", Limit: KW(10)}, nil)
	backup := NewLeafController(loop, LeafConfig{DeviceID: "d1", Limit: KW(10)}, nil)
	net.Register(CtrlAddr("d1"), primary.Handler())
	primary.Start()
	fo := NewFailover(loop, net, []Controller{backup}, FailoverConfig{})
	fo.Start()
	loop.RunUntil(2 * time.Minute)
	if fo.Promoted() {
		t.Error("backup promoted while primary healthy")
	}
	primary.Stop()
	loop.RunUntil(5 * time.Minute)
	if !fo.Promoted() {
		t.Error("backup not promoted after primary stop")
	}
}

// TestFacadeHierarchyBuild compiles a real topology into a suite
// configuration and assembles it via the façade, dialing agents on an
// in-process network.
func TestFacadeHierarchyBuild(t *testing.T) {
	spec := DefaultDatacenterSpec()
	spec.MSBs, spec.SBsPerMSB, spec.RPPsPerSB = 1, 1, 2
	spec.RacksPerRPP, spec.ServersPerRack = 1, 3
	topo, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	loop := NewSimLoop()
	net := NewRPCNetwork(loop, time.Millisecond, 1)
	dial := func(addr string) (RPCClient, error) { return net.Dial(addr), nil }
	h, err := BuildSuite(loop, CompileSuite(topo, BandConfig{}, false), dial, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumControllers() != 4 {
		t.Errorf("controllers = %d", h.NumControllers())
	}
	h.StartAll()
	loop.RunUntil(30 * time.Second)
	h.StopAll()
}
