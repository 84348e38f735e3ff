package core

import (
	"fmt"
	"testing"
	"time"
	"unsafe"

	"dynamo/internal/agent"
	"dynamo/internal/faults"
	"dynamo/internal/platform"
	"dynamo/internal/power"
	"dynamo/internal/rpc"
	"dynamo/internal/server"
	"dynamo/internal/simclock"
	"dynamo/internal/wire"
)

// wrapDial decorates a dial function so every client it returns goes
// through the injector, keyed by the dialed address.
func wrapDial(inj *faults.Injector, dial func(addr string) rpc.Client) func(addr string) rpc.Client {
	return func(addr string) rpc.Client { return inj.WrapClient(addr, dial(addr)) }
}

// TestOverlappingPullsKeepTheirOwnReading: two controllers pull the same
// child in overlapping cycles and the child answers each pull differently.
// Each controller also has an unreachable child (one in five, so the cycle
// stays valid) that keeps its cycle open until that pull times out — long
// after the call records of the children that answered have gone back to
// the transport and carried the other controller's pulls. Each controller
// must still aggregate the reading the child gave to it: the response bytes
// are only the caller's until its completion callback returns, so onPull
// has to copy them, not keep them.
func TestOverlappingPullsKeepTheirOwnReading(t *testing.T) {
	for _, lv := range bothLevels {
		t.Run(lv.name, func(t *testing.T) {
			loop := simclock.NewSimLoop()
			loop.SetStepLimit(100_000)
			net := rpc.NewNetwork(loop, 2*time.Millisecond, 1)
			var returned []float64
			net.Register(lv.addr("shared"), func(string, []byte) (wire.Message, error) {
				w := 100 + 10*float64(len(returned)+1)
				returned = append(returned, w)
				return lv.answer(w), nil
			})
			for _, id := range []string{"pad1", "pad2", "pad3"} {
				net.Register(lv.addr(id), func(string, []byte) (wire.Message, error) { return lv.answer(0), nil })
			}
			inj := faults.New(loop, 1, nil)
			build := func(device, lost string) *cycleKernel {
				inj.Add(faults.Partition(lv.addr(lost), 0, 0))
				return lv.build(loop, device, []string{"shared", "pad1", "pad2", "pad3", lost}, wrapDial(inj, net.Dial))
			}
			a, b := build("dev-a", "lost-a"), build("dev-b", "lost-b")

			// a polls every period and closes each cycle one pull timeout
			// later, when its lost child times out; b runs the same schedule
			// one second behind, so b's pull of the shared child always
			// lands inside a's open cycle.
			period, closes := a.pollInterval, a.pullTimeout+time.Millisecond
			a.Start()
			loop.RunUntil(time.Second)
			b.Start()
			for cycle := 0; cycle < 3; cycle++ {
				polled := time.Duration(cycle+1) * period
				loop.RunUntil(polled + closes)
				if len(returned) != 2*cycle+2 {
					t.Fatalf("cycle %d: child served %d pulls, want %d", cycle, len(returned), 2*cycle+2)
				}
				want := returned[2*cycle]
				if got := childReading(a, 0); got != want {
					t.Fatalf("cycle %d: a read %v W from the shared child, which answered it %v W (and b %v W)",
						cycle, got, want, returned[2*cycle+1])
				}
				if agg, valid := a.LastAggregate(); !valid || float64(agg) != want {
					t.Fatalf("cycle %d: a's aggregate = %v (valid %v), want %v", cycle, agg, valid, want)
				}
				loop.RunUntil(polled + time.Second + closes)
				want = returned[2*cycle+1]
				if got := childReading(b, 0); got != want {
					t.Fatalf("cycle %d: b read %v W, the child answered it %v W", cycle, got, want)
				}
			}
		})
	}
}

// TestLeafCycleAllocs: in steady state a whole leaf cycle allocates
// nothing — 30 pulls through fault wrappers and the in-proc network to real
// agents, then observe, decide and act. The completions are bound once per
// child, each agent reuses its reply, and the network its call records.
// With the robustness stack on, a dropped pull waits out its deadline on a
// pooled record, its retry rides a pooled record of the leaf's Retrier, and
// every capped agent's lease renewal reuses the leaf's request, a
// completion bound once per agent and the leaf's ack.
func TestLeafCycleAllocs(t *testing.T) {
	const agents = 30
	for _, tc := range []struct {
		name   string
		robust bool
	}{{"zero-rule", false}, {"retries-leases-drops", true}} {
		t.Run(tc.name, func(t *testing.T) {
			loop := simclock.NewSimLoop()
			loop.SetStepLimit(0)
			net := rpc.NewNetwork(loop, 2*time.Millisecond, 1)
			inj := faults.New(loop, 1, nil)
			renewals := 0
			var refs []AgentRef
			for i := 0; i < agents; i++ {
				id := fmt.Sprintf("srv%02d", i)
				host := server.New(server.Config{
					ID: id, Service: "web", Model: server.MustModel("haswell2015"),
					Source: server.LoadFunc(func(time.Duration) float64 { return 0.5 }),
				})
				host.Tick(0)
				ag := agent.New(id, "web", "haswell2015", platform.NewMSR(host, platform.Options{Seed: int64(i + 1)}))
				h := ag.Handler()
				if tc.robust {
					ag.EnableLease(loop, 0, nil)
					if i%3 == 0 {
						// A cap well above the draw: the leaf finds the agent
						// capped on its first pull and renews its lease from
						// then on.
						if _, err := h(agent.MethodSetCap, wire.Marshal(&agent.SetCapRequest{LimitWatts: 1000, LeaseNanos: uint64(15 * time.Second)})); err != nil {
							t.Fatal(err)
						}
					}
					next := h
					h = func(method string, body []byte) (wire.Message, error) {
						if method == agent.MethodRenewLease {
							renewals++
						}
						return next(method, body)
					}
				}
				net.Register(AgentAddr(id), h)
				refs = append(refs, AgentRef{ServerID: id, Service: "web", Generation: "haswell2015",
					Client: inj.WrapClient(AgentAddr(id), net.Dial(AgentAddr(id)))})
			}
			cfg := LeafConfig{DeviceID: "rpp", Limit: power.KW(100), Alerts: func(Alert) {}}
			if tc.robust {
				// An uncap threshold far below the draw holds the caps.
				cfg.Bands = BandConfig{CapThresholdFrac: 0.99, CapTargetFrac: 0.95, UncapThresholdFrac: 0.01}
				cfg.Retry = RetryConfig{MaxRetries: 2, JitterFrac: 0.2, Seed: 1}
				cfg.CapLeaseTTL = 15 * time.Second
				inj.Add(faults.Rule{Peer: "*", Method: agent.MethodReadPower, DropP: 0.1})
			}
			leaf := NewLeaf(loop, cfg, refs)
			leaf.Start()
			// Each run ends just before a poll, past the 2.7 s retry budget
			// of the cycle the last poll opened.
			until := leaf.pollInterval - 100*time.Millisecond
			cycle := func() {
				until += leaf.pollInterval
				loop.RunUntil(until)
			}
			const warm, runs = 10, 20
			for i := 0; i < warm; i++ {
				cycle()
			}
			if n := testing.AllocsPerRun(runs, cycle); n != 0 {
				t.Errorf("a steady-state leaf cycle over %d agents allocates %v, want 0", agents, n)
			}
			if got := leaf.Cycles(); got != warm+runs+1 {
				t.Fatalf("%d cycles ran, want %d", got, warm+runs+1)
			}
			if agg, valid := leaf.LastAggregate(); !valid || agg < power.Watts(agents*100) {
				t.Fatalf("aggregate %v (valid %v): the agents' readings did not arrive", agg, valid)
			}
			if !tc.robust {
				return
			}
			if leaf.Retries() == 0 || renewals == 0 {
				t.Fatalf("%d retries and %d lease renewals: the robustness paths did not run", leaf.Retries(), renewals)
			}
			if got := leaf.CappedCount(); got != agents/3 {
				t.Fatalf("%d agents capped, want %d", got, agents/3)
			}
		})
	}
}

// TestAgentStateSize keeps agentState in the 208-byte size class: a leaf
// holds one per server, and what only renewing agents need (their
// completion and its generation) lives behind agentState.renew.
func TestAgentStateSize(t *testing.T) {
	if s := unsafe.Sizeof(agentState{}); s > 208 {
		t.Fatalf("agentState is %d bytes, want <= 208", s)
	}
}
