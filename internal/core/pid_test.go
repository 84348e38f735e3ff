package core

import (
	"testing"
	"time"

	"dynamo/internal/power"
	"dynamo/internal/server"
)

func TestPIDStepBasics(t *testing.T) {
	p := &pidState{}
	limit := power.KW(100)

	// Below the trigger: no action, no windup.
	a, _ := p.step(0, power.KW(90), limit, false)
	if a != ActionNone {
		t.Fatalf("below trigger: %v", a)
	}
	if p.integral != 0 {
		t.Fatal("integral wound up below trigger")
	}

	// Crossing the trigger engages and requests a cap toward setpoint.
	a, target := p.step(3*time.Second, power.KW(100), limit, false)
	if a != ActionCap {
		t.Fatalf("over trigger: %v", a)
	}
	if target >= power.KW(100) || target < power.KW(50) {
		t.Errorf("target = %v", target)
	}

	// Once power settles at/below the setpoint, no further cuts.
	a, _ = p.step(6*time.Second, power.KW(95), limit, true)
	if a == ActionCap {
		t.Error("cap requested at/below setpoint")
	}

	// Power drains: uncap and disengage.
	a, _ = p.step(9*time.Second, power.KW(85), limit, true)
	if a != ActionUncap {
		t.Fatalf("drain: %v", a)
	}
	if p.engaged {
		t.Error("still engaged after uncap")
	}
}

func TestPIDAntiWindup(t *testing.T) {
	p := &pidState{}
	limit := power.KW(100)
	// Hold a large error for a long time; the integral must clamp.
	now := time.Duration(0)
	p.step(now, power.KW(120), limit, false)
	for i := 0; i < 1000; i++ {
		now += 3 * time.Second
		p.step(now, power.KW(120), limit, true)
	}
	maxI := float64(limit) * 0.20 / pidKi
	if p.integral > maxI+1 {
		t.Errorf("integral %v exceeds anti-windup clamp %v", p.integral, maxI)
	}
	// The target never demands more than a 50% cut.
	_, target := p.step(now+3*time.Second, power.KW(120), limit, true)
	if target < limit/2 {
		t.Errorf("target %v below the sanity floor", target)
	}
}

// TestLeafWithPIDHoldsLimit runs the PID algorithm end to end in a leaf
// controller: the aggregate must converge near the setpoint without
// breaching the limit, like the three-band run but tracking tighter.
func TestLeafWithPIDHoldsLimit(t *testing.T) {
	f := newFixture(t)
	refs := f.addFleet(10, "web", 0.8) // ~2950 W
	limit := power.Watts(2800)
	leaf := NewLeaf(f.loop, LeafConfig{
		DeviceID: "rpp-pid", Limit: limit, UsePID: true,
	}, refs)
	leaf.Start()
	f.loop.RunUntil(2 * time.Minute)
	agg, valid := leaf.LastAggregate()
	if !valid {
		t.Fatal("invalid aggregation")
	}
	if float64(agg) > float64(limit) {
		t.Errorf("PID failed to hold the limit: %v > %v", agg, limit)
	}
	// PID tracks the setpoint (0.96·limit) rather than the deeper
	// three-band target (0.95·limit): settled power sits within a few
	// percent of the setpoint.
	setpoint := float64(limit) * 0.96
	if float64(agg) < setpoint*0.93 {
		t.Errorf("PID overshoot: settled at %v, setpoint %.0f", agg, setpoint)
	}
	if leaf.CappedCount() == 0 {
		t.Error("expected caps")
	}
	// Load drains: PID uncaps.
	for _, id := range f.order {
		f.servers[id].SetGovMaxFreq(0) // no-op, keep API exercised
	}
}

func TestLeafPIDUncapsOnDrain(t *testing.T) {
	f := newFixture(t)
	load := 0.85
	loadPtr := &load
	var refs []AgentRef
	for i := 0; i < 8; i++ {
		id := "w" + string(rune('0'+i))
		f.addServer(id, "web", serverLoadFn(loadPtr))
		refs = append(refs, AgentRef{ServerID: id, Service: "web",
			Client: f.dial(AgentAddr(id))})
	}
	leaf := NewLeaf(f.loop, LeafConfig{DeviceID: "rpp-pid", Limit: 2300, UsePID: true}, refs)
	leaf.Start()
	f.loop.RunUntil(90 * time.Second)
	if leaf.CappedCount() == 0 {
		t.Fatal("expected caps under load")
	}
	load = 0.2
	f.loop.RunUntil(4 * time.Minute)
	if leaf.CappedCount() != 0 {
		t.Errorf("PID did not uncap after drain: %d capped", leaf.CappedCount())
	}
}

// serverLoadFn adapts a mutable load pointer to a LoadSource.
func serverLoadFn(load *float64) server.LoadSource {
	return server.LoadFunc(func(time.Duration) float64 { return *load })
}
