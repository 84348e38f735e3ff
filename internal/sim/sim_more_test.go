package sim

import (
	"reflect"
	"testing"
	"time"

	"dynamo/internal/core"
	"dynamo/internal/power"
	"dynamo/internal/topology"
)

func TestSimSensorlessGeneration(t *testing.T) {
	spec := tinySpec()
	spec.Services = []topology.ServiceShare{
		{Service: "f4storage", Generation: "westmere2011", Weight: 1},
	}
	s, err := New(Config{
		Spec: spec, Seed: 12, EnableDynamo: true,
		SensorlessGenerations: []string{"westmere2011"},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(30 * time.Second)
	// The controllers still aggregate: estimated readings work end to end.
	msb := s.Topo.OfKind(topology.KindMSB)[0]
	agg, valid := s.Hierarchy.Upper(msb.ID).LastAggregate()
	if !valid || agg <= 0 {
		t.Fatalf("agg=%v valid=%v with estimation-only fleet", agg, valid)
	}
	truth := s.TotalPower()
	rel := (float64(agg) - float64(truth)) / float64(truth)
	if rel < -0.15 || rel > 0.15 {
		t.Errorf("estimated aggregate %v vs truth %v (%.1f%%)", agg, truth, rel*100)
	}
}

func TestSimDisableTripOutage(t *testing.T) {
	spec := tinySpec()
	spec.RPPRating = power.KW(2.4)
	s, _ := New(Config{Spec: spec, Seed: 7, EnableDynamo: false, DisableTripOutage: true})
	for _, svc := range []string{"web", "cache", "hadoop", "database", "newsfeed"} {
		s.SetServiceLoadFactor(svc, 1.6)
	}
	s.Run(30 * time.Minute)
	if len(s.Trips) == 0 {
		t.Fatal("expected trips")
	}
	for _, srv := range s.Topo.Servers() {
		if s.Servers[string(srv.ID)].Crashed() {
			t.Fatal("DisableTripOutage should keep servers up")
		}
	}
}

func TestSimConfigValidation(t *testing.T) {
	bad := tinySpec()
	bad.Services = []topology.ServiceShare{{Service: "doesnotexist", Generation: "haswell2015", Weight: 1}}
	if _, err := New(Config{Spec: bad}); err == nil {
		t.Error("unknown service should fail")
	}
	bad2 := tinySpec()
	bad2.Services = []topology.ServiceShare{{Service: "web", Generation: "nope", Weight: 1}}
	if _, err := New(Config{Spec: bad2}); err == nil {
		t.Error("unknown generation should fail")
	}
}

func TestSimObservations(t *testing.T) {
	s, _ := New(Config{Spec: tinySpec(), Seed: 3})
	s.Run(time.Minute)
	obs := s.Observations()
	if len(obs) != len(s.Breakers) {
		t.Fatalf("observations = %d, want %d", len(obs), len(s.Breakers))
	}
	for _, o := range obs {
		if o.Limit <= 0 {
			t.Errorf("%s has no limit", o.Device)
		}
		if o.Power < 0 {
			t.Errorf("%s negative power", o.Device)
		}
	}
}

func TestSimHardwareSpread(t *testing.T) {
	s, _ := New(Config{Spec: tinySpec(), Seed: 3})
	s.Run(10 * time.Second)
	// Two servers of the same service should not draw identically.
	var powers []power.Watts
	for _, srv := range s.Topo.Servers() {
		if srv.Service == "web" {
			powers = append(powers, s.Servers[string(srv.ID)].Power())
		}
	}
	if len(powers) >= 2 && powers[0] == powers[1] {
		t.Error("hardware spread should differentiate identical servers")
	}
	// The models themselves differ, not only the loads.
	first := s.Topo.Servers()[0]
	if s.Servers[string(first.ID)].Model().Peak == 345 {
		t.Error("hardware spread should move a server off its nominal model")
	}
}

// TestSimWatchdogIntegration crashes an agent's process in the sim: the
// leaf over it quarantines it, restarts it through its SetRestart hook
// (the paper's watchdog) and re-admits it at the next probe.
func TestSimWatchdogIntegration(t *testing.T) {
	s, err := New(Config{Spec: tinySpec(), Seed: 4, EnableDynamo: true, QuarantineThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	victim := string(s.Topo.Servers()[0].ID)
	restarts := map[string]int{}
	var leaves []*core.Leaf
	for _, id := range s.Hierarchy.Devices() {
		if l := s.Hierarchy.Leaf(id); l != nil {
			l.SetRestart(func(id string) { restarts[id]++; s.RestartAgent(id) })
			leaves = append(leaves, l)
		}
	}
	quarantined := func() int {
		n := 0
		for _, l := range leaves {
			n += l.QuarantinedCount()
		}
		return n
	}
	s.Run(30 * time.Second)
	if len(restarts) != 0 {
		t.Fatalf("restarts %v while every agent is up", restarts)
	}
	reads, _, _, _ := s.Agents[victim].Stats()
	s.Net.Unregister(core.AgentAddr(victim))
	s.Run(2 * time.Minute)
	if restarts[victim] != 1 || len(restarts) != 1 {
		t.Errorf("restarts = %v, want one of %s", restarts, victim)
	}
	if q := quarantined(); q != 0 {
		t.Errorf("%d agents still quarantined: the probe did not re-admit the restarted agent", q)
	}
	if after, _, _, _ := s.Agents[victim].Stats(); after <= reads {
		t.Error("the restarted agent serves no pulls")
	}
}

// TestConfigKnobBudget counts the independently settable fields of the four
// configuration structs. The number may only fall: a new field needs two
// callers outside tests and examples that set it differently, and then
// another field has to go (ROADMAP aim 2, "Finish the collapse").
func TestConfigKnobBudget(t *testing.T) {
	const budget = 53
	total := 0
	for _, c := range []any{Config{}, core.HierarchyConfig{}, core.LeafConfig{}, core.UpperConfig{}} {
		total += reflect.TypeOf(c).NumField()
	}
	if total != budget {
		t.Fatalf("sim.Config + HierarchyConfig + LeafConfig + UpperConfig have %d fields, budget %d. Above it: "+
			"make the new value a constant or derive it (ROADMAP aim 2, the knob count falls). Below it: "+
			"lower the budget here so the reduction stays.", total, budget)
	}
}
