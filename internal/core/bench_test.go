package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"dynamo/internal/agent"
	"dynamo/internal/faults"
	"dynamo/internal/platform"
	"dynamo/internal/power"
	"dynamo/internal/rpc"
	"dynamo/internal/server"
	"dynamo/internal/simclock"
	"dynamo/internal/wire"
)

// benchLeaf is one pre-assembled controller with the raw pull responses of
// its fleet and the resolved agent states, aligned with the leaf's agent
// order so per-cycle priming is two pointer writes per agent.
type benchLeaf struct {
	leaf   *Leaf
	raws   [][]byte
	states []*agentState
}

// buildControlCycleBench assembles nServers/benchPerLeaf leaf controllers
// on one loop with pre-marshaled pull responses, bypassing the RPC layer:
// the benchmark measures the control cycle itself (decode, estimation,
// aggregation, band decision, capping plan, journal) — the work the cohort
// scheduler fans out — not network delivery.
func buildControlCycleBench(nServers int, cohort bool) (*simclock.SimLoop, []benchLeaf) {
	const perLeaf = 100
	loop := simclock.NewSimLoop()
	loop.SetStepLimit(0)
	var sched *CohortScheduler // nil: each leaf runs its phases itself
	if cohort {
		sched = NewCohortScheduler(loop, runtime.GOMAXPROCS(0), nil)
	}

	nLeaves := nServers / perLeaf
	leaves := make([]benchLeaf, 0, nLeaves)
	for li := 0; li < nLeaves; li++ {
		var refs []AgentRef
		raws := make([][]byte, 0, perLeaf)
		for i := 0; i < perLeaf; i++ {
			id := fmt.Sprintf("bench-%03d-%03d", li, i)
			refs = append(refs, AgentRef{ServerID: id, Service: "web"})
			// ~280 W per server with a little spread; the fleet sits above
			// the limit below, so every cycle computes a full capping plan.
			resp := &agent.ReadPowerResponse{
				TotalWatts: 270 + float64(i%20),
				Service:    "web",
			}
			raws = append(raws, wire.Marshal(resp))
		}
		// DryRun: plans are fully computed and journaled but nothing is
		// actuated, so iterations are identical and no RPC clients are
		// needed.
		leaf := NewLeaf(loop, LeafConfig{
			DeviceID:  fmt.Sprintf("rpp-%03d", li),
			Limit:     power.Watts(perLeaf * 260),
			DryRun:    true,
			Scheduler: sched,
		}, refs)
		leaves = append(leaves, benchLeaf{leaf: leaf, raws: raws, states: leaf.list})
	}
	return loop, leaves
}

// controlCycleRunner returns a function that runs one control cycle: at
// one virtual instant it primes every agent's raw response and completes
// every leaf's collection — exactly the state the pull cycle leaves
// behind — then drains the loop up to until so the cohort flush (or each
// leaf's own phases) run to completion. The priming event's timer and
// callback are made once, so a cycle allocates only what the kernel does.
func controlCycleRunner(loop *simclock.SimLoop, leaves []benchLeaf) func(until time.Duration) {
	var prime simclock.Timer
	complete := func() {
		for _, bl := range leaves {
			for i, st := range bl.states {
				st.rawValid = true
				st.raw = bl.raws[i]
			}
			bl.leaf.complete()
		}
	}
	return func(until time.Duration) {
		loop.Arm(&prime, 0, complete)
		loop.RunUntil(until)
	}
}

// buildLeafRPCBench assembles one leaf pulling 100 agents over the in-proc
// RPC network — the full delivery path the DryRun cycle bench bypasses —
// optionally through a fault injector dropping a slice of pulls so every
// cycle exercises timeout detection, backoff scheduling, and retries.
func buildLeafRPCBench(b *testing.B, dropP float64) (*simclock.SimLoop, *Leaf) {
	b.Helper()
	const perLeaf = 100
	loop := simclock.NewSimLoop()
	loop.SetStepLimit(0)
	net := rpc.NewNetwork(loop, 2*time.Millisecond, 99)
	dial := net.Dial
	if dropP > 0 {
		inj := faults.New(loop, 17, nil)
		inj.Add(faults.Rule{Peer: "agent/*", Method: agent.MethodReadPower, DropP: dropP})
		dial = wrapDial(inj, net.Dial)
	}
	var refs []AgentRef
	for i := 0; i < perLeaf; i++ {
		id := fmt.Sprintf("bench-%03d", i)
		srv := server.New(server.Config{
			ID: id, Service: "web",
			Model:  server.MustModel("haswell2015"),
			Source: server.LoadFunc(func(time.Duration) float64 { return 0.8 }),
		})
		srv.Tick(0)
		ag := agent.New(id, "web", "haswell2015", platform.NewMSR(srv, platform.Options{Seed: int64(i + 1)}))
		net.Register(AgentAddr(id), ag.Handler())
		refs = append(refs, AgentRef{ServerID: id, Service: "web", Client: dial(AgentAddr(id))})
	}
	leaf := NewLeaf(loop, LeafConfig{
		DeviceID:    "rpp-bench",
		Limit:       power.Watts(perLeaf * 260), // below fleet draw: full capping plan per cycle
		PullTimeout: 200 * time.Millisecond,
		Retry:       RetryConfig{MaxRetries: 2, Backoff: 20 * time.Millisecond, JitterFrac: 0.2, Seed: 7},
	}, refs)
	leaf.Start()
	return loop, leaf
}

// BenchmarkLeafCycleWithRetries measures a complete pull→decide→act cycle
// through the RPC layer, clean versus a 10% drop rate on pulls: the faulty
// case bounds the overhead of per-call timeout arming, retry bookkeeping,
// and deterministic backoff draws under sustained packet loss.
func BenchmarkLeafCycleWithRetries(b *testing.B) {
	for _, bc := range []struct {
		name  string
		dropP float64
	}{{"clean", 0}, {"drop10pct", 0.10}} {
		b.Run(bc.name, func(b *testing.B) {
			loop, leaf := buildLeafRPCBench(b, bc.dropP)
			// Warm one cycle (poll ticks every 3 s of virtual time).
			loop.RunUntil(4 * time.Second)
			start := leaf.Cycles()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				loop.RunUntil(time.Duration(i+2)*3*time.Second + time.Second)
			}
			b.StopTimer()
			if got := leaf.Cycles() - start; got < uint64(b.N) {
				b.Fatalf("ran %d cycles, want >= %d", got, b.N)
			}
			if bc.dropP > 0 && leaf.Retries() == 0 {
				b.Fatal("drop schedule produced no retries; bench is not exercising the retry path")
			}
			b.ReportMetric(float64(leaf.Retries())/float64(b.N), "retries/cycle")
		})
	}
}

// BenchmarkControlCycle measures one full control cycle across the fleet:
// every leaf's observe+decide+act for 2 k and 10 k servers, inline (no
// scheduler: each leaf runs its phases at its completion instant) versus
// cohort (observe+decide fanned over GOMAXPROCS workers).
func BenchmarkControlCycle(b *testing.B) {
	for _, size := range []int{2000, 10000} {
		for _, mode := range []string{"inline", "cohort"} {
			b.Run(fmt.Sprintf("servers=%d/%s", size, mode), func(b *testing.B) {
				run := controlCycleRunner(buildControlCycleBench(size, mode == "cohort"))
				// Warm one cycle so lazily sized scratch state is allocated.
				run(time.Millisecond)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run(time.Duration(i+2) * time.Millisecond)
				}
			})
		}
	}
}

// BenchmarkComputePlan500Servers measures one capping plan over 500
// servers of four services.
func BenchmarkComputePlan500Servers(b *testing.B) {
	cfg := DefaultPriorityConfig()
	services := []string{"web", "cache", "hadoop", "newsfeed"}
	servers := make([]ServerState, 500)
	for i := range servers {
		servers[i] = ServerState{
			ID:      fmt.Sprintf("s%03d", i),
			Service: services[i%len(services)],
			Power:   power.Watts(180 + float64(i%170)),
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan := ComputePlan(servers, power.KW(8), cfg)
		if plan.Achieved <= 0 {
			b.Fatal("no plan")
		}
	}
}
