package core

import (
	"testing"
	"time"

	"dynamo/internal/agent"
	"dynamo/internal/power"
	"dynamo/internal/rpc"
	"dynamo/internal/simclock"
	"dynamo/internal/wire"
)

// TestOverlappingPullsKeepTheirOwnReading: two leaves pull the same agent
// in overlapping cycles and the agent answers each pull differently. Each
// leaf also has an unreachable agent, so its cycle stays open until that
// pull times out — long after the shared agent's call record has gone back
// to the transport and carried the other leaf's pull. Each leaf must still
// aggregate the reading the agent gave to it: the response bytes are only
// the caller's until its completion callback returns, so onPull has to
// copy them, not keep them.
func TestOverlappingPullsKeepTheirOwnReading(t *testing.T) {
	loop := simclock.NewSimLoop()
	loop.SetStepLimit(100_000)
	net := rpc.NewNetwork(loop, 2*time.Millisecond, 1)
	var returned []float64
	net.Register("agent/shared", func(method string, _ []byte) (wire.Message, error) {
		w := 100 + 10*float64(len(returned)+1)
		returned = append(returned, w)
		return &agent.ReadPowerResponse{TotalWatts: w, HasSensor: true, Service: "web", Generation: "haswell2015"}, nil
	})
	newLeaf := func(device, lost string) *Leaf {
		net.Register(lost, func(string, []byte) (wire.Message, error) { return rpc.Empty, nil })
		net.SetPartitioned(lost, true)
		return NewLeaf(loop, LeafConfig{
			DeviceID: device, Limit: power.KW(10), MaxFailureFrac: 0.9,
			Alerts: func(Alert) {},
		}, []AgentRef{
			{ServerID: "shared", Service: "web", Generation: "haswell2015", Client: net.Dial("agent/shared")},
			{ServerID: lost, Service: "cache", Generation: "haswell2015", Client: net.Dial(lost)},
		})
	}
	a, b := newLeaf("rpp-a", "agent/lost-a"), newLeaf("rpp-b", "agent/lost-b")

	// a polls at 3 s, 6 s, ... and closes each cycle 2 s later when its
	// lost agent times out; b runs the same schedule one second behind, so
	// b's pull of the shared agent always lands inside a's open cycle.
	a.Start()
	loop.RunUntil(time.Second)
	b.Start()
	for cycle := 0; cycle < 3; cycle++ {
		loop.RunUntil(time.Duration(3*cycle+5)*time.Second + time.Millisecond)
		if len(returned) != 2*cycle+2 {
			t.Fatalf("cycle %d: agent served %d pulls, want %d", cycle, len(returned), 2*cycle+2)
		}
		want := returned[2*cycle]
		if got := a.agents["shared"].reading; got != want {
			t.Fatalf("cycle %d: leaf a read %v W from the shared agent, which answered it %v W (and leaf b %v W)",
				cycle, got, want, returned[2*cycle+1])
		}
		if agg, valid := a.LastAggregate(); !valid || float64(agg) != want {
			t.Fatalf("cycle %d: leaf a aggregate = %v (valid %v), want %v", cycle, agg, valid, want)
		}
		loop.RunUntil(time.Duration(3*cycle+6)*time.Second + time.Millisecond)
		want = returned[2*cycle+1]
		if got := b.agents["shared"].reading; got != want {
			t.Fatalf("cycle %d: leaf b read %v W, the agent answered it %v W", cycle, got, want)
		}
	}
}

// TestOverlappingChildPullsKeepTheirOwnReading is the same hazard one
// level up: Upper.onPull must copy a child's answer as Leaf.onPull does.
func TestOverlappingChildPullsKeepTheirOwnReading(t *testing.T) {
	loop := simclock.NewSimLoop()
	loop.SetStepLimit(100_000)
	net := rpc.NewNetwork(loop, 2*time.Millisecond, 1)
	var returned []float64
	net.Register("ctrl/shared", func(string, []byte) (wire.Message, error) {
		w := 1000 * float64(len(returned)+1)
		returned = append(returned, w)
		return &CtrlReadPowerResponse{AggWatts: w, Valid: true}, nil
	})
	newUpper := func(device, lost string) *Upper {
		net.Register(lost, func(string, []byte) (wire.Message, error) { return rpc.Empty, nil })
		net.SetPartitioned(lost, true)
		return NewUpper(loop, UpperConfig{DeviceID: device, Limit: power.KW(100), Alerts: func(Alert) {}},
			[]ChildRef{{ID: "shared", Client: net.Dial("ctrl/shared")}, {ID: lost, Client: net.Dial(lost)}})
	}
	a, b := newUpper("sb-a", "ctrl/lost-a"), newUpper("sb-b", "ctrl/lost-b")
	// a polls at 9 s and closes the cycle at 13.5 s; b polls at 10 s.
	a.Start()
	loop.RunUntil(time.Second)
	b.Start()
	loop.RunUntil(15 * time.Second)
	if len(returned) != 2 {
		t.Fatalf("child served %d pulls, want 2", len(returned))
	}
	if got := float64(a.children["shared"].reading); got != returned[0] {
		t.Fatalf("upper a read %v W from the shared child, which answered it %v W (and upper b %v W)", got, returned[0], returned[1])
	}
	if got := float64(b.children["shared"].reading); got != returned[1] {
		t.Fatalf("upper b read %v W, the child answered it %v W", got, returned[1])
	}
}
