package core

import (
	"fmt"
	"testing"
	"time"

	"dynamo/internal/power"
	"dynamo/internal/rpc"
	"dynamo/internal/server"
)

// upperFixture wires two leaf controllers (as children) under one upper
// controller, with real simulated fleets behind the leaves.
type upperFixture struct {
	*fixture
	leaves map[string]*Leaf
	upper  *Upper
}

// buildUpper creates children child1/child2 with n servers each at the
// given loads, quotas as specified, and an upper controller with the given
// physical limit.
func buildUpper(t *testing.T, nPer int, loads [2]float64, quotas [2]power.Watts, upperLimit power.Watts) *upperFixture {
	f := newFixture(t)
	uf := &upperFixture{fixture: f, leaves: map[string]*Leaf{}}
	var children []ChildRef
	for c := 0; c < 2; c++ {
		child := fmt.Sprintf("child%d", c+1)
		var refs []AgentRef
		load := loads[c]
		for i := 0; i < nPer; i++ {
			id := fmt.Sprintf("%s-web-%03d", child, i)
			f.addServer(id, "web", server.LoadFunc(func(time.Duration) float64 { return load }))
			refs = append(refs, AgentRef{ServerID: id, Service: "web",
				Generation: "haswell2015", Client: f.dial(AgentAddr(id))})
		}
		leaf := NewLeaf(f.loop, LeafConfig{
			DeviceID: child,
			Limit:    power.KW(200), // generous physical limit: parent dominates
			Quota:    quotas[c],
			Alerts:   f.alertSink(),
		}, refs)
		f.net.Register(CtrlAddr(child), leaf.Handler())
		leaf.Start()
		uf.leaves[child] = leaf
		children = append(children, ChildRef{
			ID: child, Client: f.dial(CtrlAddr(child)), Quota: quotas[c],
		})
	}
	uf.upper = NewUpper(f.loop, UpperConfig{
		DeviceID: "sb1", Limit: upperLimit, Alerts: f.alertSink(),
		OffenderBucket: 100,
	}, children)
	f.net.Register(CtrlAddr("sb1"), uf.upper.Handler())
	uf.upper.Start()
	return uf
}

func TestUpperAggregatesChildren(t *testing.T) {
	uf := buildUpper(t, 5, [2]float64{0.5, 0.5}, [2]power.Watts{2000, 2000}, power.KW(100))
	uf.loop.RunUntil(30 * time.Second)
	agg, valid := uf.upper.LastAggregate()
	if !valid {
		t.Fatal("upper aggregation invalid")
	}
	truth := uf.totalPower()
	rel := float64(agg-truth) / float64(truth)
	if rel < -0.08 || rel > 0.08 {
		t.Errorf("upper agg %v vs truth %v", agg, truth)
	}
	if uf.upper.CapEvents() != 0 {
		t.Error("no capping expected under generous limit")
	}
}

// TestUpperPunishOffenderFirst reproduces the paper's §III-D worked
// example: both children share a parent whose limit is below the sum of
// child draws; only the child above its quota gets a contractual limit.
func TestUpperPunishOffenderFirst(t *testing.T) {
	// child1 at load 0.9 (~3.2 kW), quota 2.5 kW → offender.
	// child2 at load 0.45 (~2 kW), quota 2.5 kW → compliant.
	uf := buildUpper(t, 10, [2]float64{0.9, 0.45},
		[2]power.Watts{2500, 2500}, power.Watts(5000))
	uf.loop.RunUntil(60 * time.Second)

	contracted := uf.upper.ContractedChildren()
	if len(contracted) != 1 || contracted[0] != "child1" {
		t.Fatalf("contracted = %v, want [child1]", contracted)
	}
	if uf.leaves["child1"].Contract() <= 0 {
		t.Error("child1 should carry a contractual limit")
	}
	if uf.leaves["child2"].Contract() != 0 {
		t.Error("compliant child2 must not be contracted")
	}
	// The offender's leaf must enforce the contract on its servers.
	agg1, _ := uf.leaves["child1"].LastAggregate()
	if agg1 > power.Watts(float64(uf.leaves["child1"].Contract())*1.01) {
		t.Errorf("child1 agg %v exceeds contract %v", agg1, uf.leaves["child1"].Contract())
	}
	// Parent settles below its threshold.
	agg, _ := uf.upper.LastAggregate()
	if agg > power.Watts(5000*0.99) {
		t.Errorf("upper agg %v above threshold", agg)
	}
}

func TestUpperSpillsBeyondOffenders(t *testing.T) {
	// Both children above quota and even cutting offenders to quota is
	// not enough: the residual must spread to both.
	uf := buildUpper(t, 10, [2]float64{0.95, 0.95},
		[2]power.Watts{3300, 3300}, power.Watts(5500))
	uf.loop.RunUntil(90 * time.Second)
	contracted := uf.upper.ContractedChildren()
	if len(contracted) != 2 {
		t.Fatalf("contracted = %v, want both children", contracted)
	}
	agg, _ := uf.upper.LastAggregate()
	if agg > power.Watts(5500*1.0) {
		t.Errorf("upper agg %v above limit", agg)
	}
}

func TestUpperUncapsWhenLoadDrops(t *testing.T) {
	f := newFixture(t)
	load := 0.9
	var refs []AgentRef
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("c1-web-%03d", i)
		f.addServer(id, "web", server.LoadFunc(func(time.Duration) float64 { return load }))
		refs = append(refs, AgentRef{ServerID: id, Service: "web",
			Generation: "haswell2015", Client: f.dial(AgentAddr(id))})
	}
	leaf := NewLeaf(f.loop, LeafConfig{DeviceID: "c1", Limit: power.KW(200), Quota: 2500}, refs)
	f.net.Register(CtrlAddr("c1"), leaf.Handler())
	leaf.Start()
	upper := NewUpper(f.loop, UpperConfig{DeviceID: "sb1", Limit: 3000, OffenderBucket: 100}, []ChildRef{
		{ID: "c1", Client: f.dial(CtrlAddr("c1")), Quota: 2500},
	})
	upper.Start()
	f.loop.RunUntil(60 * time.Second)
	if len(upper.ContractedChildren()) == 0 {
		t.Fatal("expected contract under high load")
	}
	load = 0.2
	f.loop.RunUntil(180 * time.Second)
	if len(upper.ContractedChildren()) != 0 {
		t.Error("contracts should clear after load drop")
	}
	if leaf.Contract() != 0 {
		t.Error("leaf contract should be cleared")
	}
	if leaf.CappedCount() != 0 {
		t.Error("leaf caps should be released")
	}
}

func TestUpperStaleChildrenInvalidate(t *testing.T) {
	uf := buildUpper(t, 3, [2]float64{0.5, 0.5}, [2]power.Watts{2000, 2000}, power.KW(100))
	uf.loop.RunUntil(30 * time.Second)
	// Partition both children: 100% stale > 50% threshold.
	uf.partition(CtrlAddr("child1"))
	uf.partition(CtrlAddr("child2"))
	uf.loop.RunUntil(90 * time.Second)
	if _, valid := uf.upper.LastAggregate(); valid {
		t.Error("aggregation should be invalid with all children stale")
	}
	sawCritical := false
	for _, a := range uf.alerts {
		if a.Level == AlertCritical {
			sawCritical = true
		}
	}
	if !sawCritical {
		t.Error("expected critical alert")
	}
}

func TestUpperSingleStaleChildTolerated(t *testing.T) {
	uf := buildUpper(t, 3, [2]float64{0.5, 0.5}, [2]power.Watts{2000, 2000}, power.KW(100))
	uf.loop.RunUntil(30 * time.Second)
	uf.partition(CtrlAddr("child2"))
	uf.loop.RunUntil(60 * time.Second)
	agg, valid := uf.upper.LastAggregate()
	if !valid {
		t.Fatal("one stale child of two (50%) should still be tolerated")
	}
	if agg <= 0 {
		t.Error("stale child should contribute last-known value")
	}
}

func TestUpperHandlerProtocol(t *testing.T) {
	uf := buildUpper(t, 2, [2]float64{0.5, 0.5}, [2]power.Watts{2000, 2000}, power.KW(100))
	uf.loop.RunUntil(20 * time.Second)
	cl := uf.dial(CtrlAddr("sb1"))
	var read CtrlReadPowerResponse
	ok := false
	cl.Call(MethodCtrlReadPower, rpc.Empty, time.Second, func(resp []byte, err error) {
		ok = rpc.Decode(resp, err, &read) == nil
	})
	uf.loop.RunUntil(21 * time.Second)
	if !ok || !read.Valid || read.AggWatts <= 0 {
		t.Fatalf("read = %+v", read)
	}
	if read.LimitWatts != 100000 {
		t.Errorf("limit = %v", read.LimitWatts)
	}
	// Contract from a (hypothetical) MSB parent.
	cl.Call(MethodCtrlSetContract, &SetContractRequest{LimitWatts: 50000}, time.Second, func([]byte, error) {})
	uf.loop.RunUntil(22 * time.Second)
	if uf.upper.EffectiveLimit() != 50000 {
		t.Errorf("effective limit = %v", uf.upper.EffectiveLimit())
	}
	cl.Call(MethodCtrlClearContract, rpc.Empty, time.Second, func([]byte, error) {})
	uf.loop.RunUntil(23 * time.Second)
	if uf.upper.EffectiveLimit() != power.KW(100) {
		t.Errorf("effective limit after clear = %v", uf.upper.EffectiveLimit())
	}
	if _, err := uf.upper.Handler()("bogus", nil); err == nil {
		t.Error("unknown method should error")
	}
}

// TestThreeLevelPropagation chains MSB→SB→leaf and verifies a contract
// recursively propagates (paper: "it will then recursively propagate its
// decisions to downstream controllers via more contractual power limits").
func TestThreeLevelPropagation(t *testing.T) {
	f := newFixture(t)
	var refs []AgentRef
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("w-%03d", i)
		f.addServer(id, "web", server.LoadFunc(func(time.Duration) float64 { return 0.9 }))
		refs = append(refs, AgentRef{ServerID: id, Service: "web",
			Generation: "haswell2015", Client: f.dial(AgentAddr(id))})
	}
	leaf := NewLeaf(f.loop, LeafConfig{DeviceID: "rpp1", Limit: power.KW(200), Quota: 2500}, refs)
	f.net.Register(CtrlAddr("rpp1"), leaf.Handler())
	leaf.Start()
	sb := NewUpper(f.loop, UpperConfig{DeviceID: "sb1", Limit: power.KW(200), Quota: 2800, OffenderBucket: 100},
		[]ChildRef{{ID: "rpp1", Client: f.dial(CtrlAddr("rpp1")), Quota: 2500}})
	f.net.Register(CtrlAddr("sb1"), sb.Handler())
	sb.Start()
	msb := NewUpper(f.loop, UpperConfig{DeviceID: "msb1", Limit: 3000, OffenderBucket: 100, PollInterval: 27 * time.Second},
		[]ChildRef{{ID: "sb1", Client: f.dial(CtrlAddr("sb1")), Quota: 2800}})
	msb.Start()
	f.loop.RunUntil(4 * time.Minute)

	// Fleet draws ~3.2 kW unconstrained; MSB limit 3 kW must propagate
	// MSB → SB (contract) → RPP (contract) → server caps.
	if sb.EffectiveLimit() >= power.KW(200) {
		t.Error("SB should be contracted by MSB")
	}
	if leaf.Contract() == 0 {
		t.Error("leaf should be contracted by SB")
	}
	if leaf.CappedCount() == 0 {
		t.Error("servers should be capped")
	}
	agg, _ := msb.LastAggregate()
	if agg > 3000 {
		t.Errorf("MSB agg %v above its 3 kW limit", agg)
	}
}
