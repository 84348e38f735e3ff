package core

import (
	"fmt"
	"runtime"
	"runtime/debug"
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
	"dynamo/internal/statestore"
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
// nothing but the checkpoint it writes — 30 pulls through fault wrappers
// and the in-proc network to real agents, then observe, decide and act.
// The completions are bound once per child, each agent reuses its reply,
// and the network its call records. With the robustness stack on, a
// dropped pull waits out its deadline on a pooled record, its retry rides
// a pooled record of the leaf's Retrier, and every pull of a capped agent
// renews its lease with the one request the kernel keeps. In the capping
// case the load swings across the limit, so the leaf caps every agent,
// holds the caps while its pulls renew them, then uncaps, and again: the plan runs in the leaf's kept planner, every cap and
// uncap rides the agent's command record, the cohort scheduler reuses its
// batch, and the one allocation a cycle makes is the payload the state
// store keeps. In the dry-run case the leaf plans a cut every cycle and
// reports it to its alert sink: an alert is a value, so reporting
// allocates nothing.
func TestLeafCycleAllocs(t *testing.T) {
	const agents = 30
	for _, tc := range []struct {
		name                    string
		robust, capping, dryRun bool
	}{
		{name: "zero-rule"},
		{name: "retries-leases-drops", robust: true},
		{name: "capping", capping: true},
		{name: "dry-run", dryRun: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			loop := simclock.NewSimLoop()
			loop.SetStepLimit(0)
			net := rpc.NewNetwork(loop, 2*time.Millisecond, 1)
			inj := faults.New(loop, 1, nil)
			renewals := 0
			var refs []AgentRef
			var hosts []*server.Server
			// The capping case swings every server between 0.9 and 0.2 load
			// each 12 s: four cycles over the limit, four under it. The
			// dry-run case stays over it.
			load := func(now time.Duration) float64 {
				switch {
				case tc.dryRun:
					return 0.9
				case !tc.capping:
					return 0.5
				case (now/(12*time.Second))%2 == 1:
					return 0.2
				}
				return 0.9
			}
			for i := 0; i < agents; i++ {
				id := fmt.Sprintf("srv%02d", i)
				host := server.New(server.Config{
					ID: id, Service: "web", Model: server.MustModel("haswell2015"),
					Source: server.LoadFunc(load),
				})
				host.Tick(0)
				hosts = append(hosts, host)
				ag := agent.New(id, "web", "haswell2015", platform.NewMSR(host, platform.Options{Seed: int64(i + 1)}))
				h := ag.Handler()
				if tc.robust || tc.capping {
					ag.EnableLease(loop, 0, nil)
				}
				if tc.robust {
					if i%3 == 0 {
						// A cap well above the draw: the leaf finds the agent
						// capped on its first pull and renews its lease from
						// then on.
						if _, err := h(agent.MethodSetCap, wire.Marshal(&agent.SetCapRequest{LimitWatts: 1000, LeaseNanos: uint64(15 * time.Second)})); err != nil {
							t.Fatal(err)
						}
					}
				}
				if tc.robust || tc.capping {
					next := h
					h = func(method string, body []byte) (wire.Message, error) {
						if leasedPull(method, body) > 0 {
							renewals++
						}
						return next(method, body)
					}
				}
				net.Register(AgentAddr(id), h)
				refs = append(refs, AgentRef{ServerID: id, Service: "web", Generation: "haswell2015",
					Client: inj.WrapClient(AgentAddr(id), net.Dial(AgentAddr(id)))})
			}
			dryRuns := 0
			cfg := LeafConfig{DeviceID: "rpp", Limit: power.KW(100), Alerts: func(a Alert) {
				if a.Kind == KindDryRunCap {
					dryRuns++
				}
			}}
			if tc.robust {
				// An uncap threshold far below the draw holds the caps.
				cfg.Bands = BandConfig{CapThresholdFrac: 0.99, CapTargetFrac: 0.95, UncapThresholdFrac: 0.01}
				cfg.Retry = RetryConfig{MaxRetries: 2, JitterFrac: 0.2, Seed: 1}
				cfg.CapLeaseTTL = 15 * time.Second
				inj.Add(faults.Rule{Peer: "*", Method: agent.MethodReadPower, DropP: 0.1})
			}
			var store *statestore.Store
			if tc.capping {
				// 30 servers draw ~9.6 kW at 0.9 load and ~4.3 kW at 0.2:
				// each high phase caps every server to 95% of 7.5 kW, and
				// the low phase is well under the uncap band.
				cfg.Limit = 7500
				cfg.CapLeaseTTL = 15 * time.Second
				cfg.Scheduler = NewCohortScheduler(loop, 1, nil)
				store = statestore.NewStore(loop, "local", nil)
				cfg.Checkpoint = store.NewWriter("rpp", "primary")
				tick := simclock.NewTicker(loop, time.Second, func() {
					for _, h := range hosts {
						h.Tick(loop.Now())
					}
				})
				tick.Start()
			}
			if tc.dryRun {
				cfg.Limit, cfg.DryRun = 7500, true
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
			const runs = 20
			warm := uint64(10)
			if tc.capping {
				// Past the first snapshot cadence (128 deltas), so the
				// store's retained window and its encoder are at their
				// steady size.
				warm = 140
			}
			for i := uint64(0); i < warm; i++ {
				cycle()
			}
			caps, uncaps := leaf.CapEvents(), leaf.UncapEvents()
			var before uint64
			if store != nil {
				before = store.NextSeq("rpp")
			}
			wantCycles := warm + runs + 1
			if tc.capping {
				// Counted exactly: the allocations are the payloads of the
				// checkpoints the cycles write, one each.
				n := fewestAllocs(func() {
					for i := 0; i <= runs; i++ {
						cycle()
					}
				})
				if got := store.NextSeq("rpp") - before; n != runs+1 || got != 3*(runs+1) {
					t.Errorf("%d steady-state leaf cycles over %d agents allocate %d times (and %d cycles wrote %d checkpoints), want one per cycle",
						runs+1, agents, n, 3*(runs+1), got)
				}
				wantCycles = warm + 3*(runs+1)
			} else if n := testing.AllocsPerRun(runs, cycle); n != 0 {
				t.Errorf("a steady-state leaf cycle over %d agents allocates %v times, want 0", agents, n)
			}
			if got := leaf.Cycles(); got != wantCycles {
				t.Fatalf("%d cycles ran, want %d", got, wantCycles)
			}
			if agg, valid := leaf.LastAggregate(); !valid || agg < power.Watts(agents*100) {
				t.Fatalf("aggregate %v (valid %v): the agents' readings did not arrive", agg, valid)
			}
			if tc.dryRun {
				if dryRuns < int(wantCycles)-1 || leaf.CapEvents() != 0 {
					t.Fatalf("%d dry-run alerts and %d cap events in %d cycles: the leaf did not plan every cycle without capping",
						dryRuns, leaf.CapEvents(), wantCycles)
				}
				return
			}
			if tc.capping {
				if leaf.CapEvents()-caps < 2 || leaf.UncapEvents()-uncaps < 2 || renewals == 0 {
					t.Fatalf("%d caps, %d uncaps and %d renewing pulls in %d cycles: the leaf did not cap, hold and uncap",
						leaf.CapEvents()-caps, leaf.UncapEvents()-uncaps, renewals, runs+1)
				}
				return
			}
			if !tc.robust {
				return
			}
			if leaf.Retries() == 0 || renewals == 0 {
				t.Fatalf("%d retries and %d renewing pulls: the robustness paths did not run", leaf.Retries(), renewals)
			}
			if got := leaf.CappedCount(); got != agents/3 {
				t.Fatalf("%d agents capped, want %d", got, agents/3)
			}
		})
	}
}

// TestUpperCycleAllocs: an upper controller's steady-state cycle
// allocates nothing but its checkpoint while it contracts an offending
// child, holds the contract, and releases it. Two scripted child
// controllers answer its pulls from one kept reply each: the offender
// draws 6.5 kW over a 5 kW quota for eight cycles (and obeys a contract),
// then both draw 3 kW for eight. The plan runs in the upper's kept
// scratch and every contract and release rides the child's command
// record. In the dry-run case, with no checkpoint, the upper reports the
// contracts it would send to its alert sink and allocates nothing.
func TestUpperCycleAllocs(t *testing.T) {
	for _, dryRun := range []bool{false, true} {
		name := "contracting"
		if dryRun {
			name = "dry-run"
		}
		t.Run(name, func(t *testing.T) { testUpperCycleAllocs(t, dryRun) })
	}
}

func testUpperCycleAllocs(t *testing.T, dryRun bool) {
	loop := simclock.NewSimLoop()
	loop.SetStepLimit(0)
	net := rpc.NewNetwork(loop, 2*time.Millisecond, 1)
	high := func() bool { return (loop.Now()/(72*time.Second))%2 == 0 }
	var children []ChildRef
	contracts, releases := 0, 0
	for i, draw := range []power.Watts{6500, 4500} {
		id := fmt.Sprintf("row%d", i)
		var resp CtrlReadPowerResponse
		var contract power.Watts
		var dec wire.Decoder
		net.Register(CtrlAddr(id), func(method string, body []byte) (wire.Message, error) {
			switch method {
			case MethodCtrlReadPower:
				agg := power.Watts(3000)
				if high() {
					agg = draw
				}
				if contract > 0 && agg > contract {
					agg = contract
				}
				resp = CtrlReadPowerResponse{AggWatts: float64(agg), Valid: true, QuotaWatts: 5000, LimitWatts: 8000}
				return &resp, nil
			case MethodCtrlSetContract:
				var req SetContractRequest
				dec.Reset(body)
				if err := req.UnmarshalWire(&dec); err != nil {
					return nil, err
				}
				contract = power.Watts(req.LimitWatts)
				contracts++
			case MethodCtrlClearContract:
				contract = 0
				releases++
			}
			return ackOK, nil
		})
		children = append(children, ChildRef{ID: id, Client: net.Dial(CtrlAddr(id)), Quota: 5000})
	}
	dryRuns := 0
	cfg := UpperConfig{
		DeviceID: "sb", Limit: 10000, OffenderBucket: 100, DryRun: dryRun,
		Alerts: func(a Alert) {
			if a.Kind == KindDryRunContract {
				dryRuns++
			}
		},
		Scheduler: NewCohortScheduler(loop, 1, nil),
	}
	var store *statestore.Store
	if !dryRun {
		store = statestore.NewStore(loop, "local", nil)
		cfg.Checkpoint = store.NewWriter("sb", "primary")
	}
	upper := NewUpper(loop, cfg, children)
	upper.Start()
	until := upper.pollInterval - 100*time.Millisecond
	cycle := func() {
		until += upper.pollInterval
		loop.RunUntil(until)
	}
	const warm, runs = 140, 32 // past the first snapshot cadence; two full swings
	for i := 0; i < warm; i++ {
		cycle()
	}
	caps, uncaps, sent, released, reported := upper.CapEvents(), upper.UncapEvents(), contracts, releases, dryRuns
	var before uint64
	if store != nil {
		before = store.NextSeq("sb")
	}
	n := fewestAllocs(func() {
		for i := 0; i <= runs; i++ {
			cycle()
		}
	})
	if dryRun {
		if n != 0 {
			t.Errorf("%d steady-state dry-run upper cycles allocate %d times, want 0", runs+1, n)
		}
		// Three runs of 33 cycles, each over the limit for half of them,
		// a plan every third cycle of those (the hold-off).
		if dryRuns-reported < 6 || contracts != 0 || upper.CapEvents() != 0 {
			t.Fatalf("%d dry-run alerts, %d contracts and %d cap events: the upper did not plan without contracting",
				dryRuns-reported, contracts, upper.CapEvents())
		}
		return
	}
	if got := store.NextSeq("sb") - before; n != runs+1 || got != 3*(runs+1) {
		t.Errorf("%d steady-state upper cycles allocate %d times (and %d cycles wrote %d checkpoints), want one per cycle",
			runs+1, n, 3*(runs+1), got)
	}
	if upper.CapEvents()-caps < 2 || upper.UncapEvents()-uncaps < 2 || contracts-sent < 2 || releases-released < 2 {
		t.Fatalf("%d caps, %d uncaps, %d contracts and %d releases in %d cycles: the upper did not contract and release",
			upper.CapEvents()-caps, upper.UncapEvents()-uncaps, contracts-sent, releases-released, runs+1)
	}
}

// fewestAllocs runs f three times and returns the fewest heap allocations
// a run made. The runtime's own background work (after a collection, a
// finalizer) allocates at moments no test controls, so the collector is
// off while f runs, and only a count every run reaches is f's own.
func fewestAllocs(f func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fewest := ^uint64(0)
	for range 3 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		fewest = min(fewest, m1.Mallocs-m0.Mallocs)
	}
	return fewest
}

// TestAgentStateSize keeps agentState in the 176-byte size class: a leaf
// holds one per server, and a cap lease needs no per-agent state, since the
// pull renews it.
func TestAgentStateSize(t *testing.T) {
	if s := unsafe.Sizeof(agentState{}); s > 176 {
		t.Fatalf("agentState is %d bytes, want <= 176", s)
	}
}
