package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"dynamo/internal/agent"
	"dynamo/internal/core"
	"dynamo/internal/faults"
	"dynamo/internal/platform"
	"dynamo/internal/power"
	"dynamo/internal/rpc"
	"dynamo/internal/server"
	"dynamo/internal/sim"
	"dynamo/internal/simclock"
	"dynamo/internal/statestore"
	"dynamo/internal/telemetry"
	"dynamo/internal/topology"
	"dynamo/internal/wire"
	"dynamo/internal/workload"
)

// Probes (source C of the traced pass) are fixed-count direct calls to one
// layer's public functions on inputs shaped like the workloads'. They do
// not depend on the workload or, beyond seeding, on the seed: they say what
// one operation of a layer costs, so that a change in an end-to-end metric
// can be set against the layer that was meant to cause it.

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink float64

// measure runs f n times in each of three passes and returns the fastest
// pass's ns per op and its allocations per op. i keeps rising across
// passes, so f can derive non-decreasing timestamps from it.
func measure(n int, f func(i int)) (nsPerOp, allocsPerOp float64) {
	var m0, m1 runtime.MemStats
	for pass := 0; pass < 3; pass++ {
		runtime.ReadMemStats(&m0)
		t := time.Now()
		for i := pass * n; i < (pass+1)*n; i++ {
			f(i)
		}
		ns := float64(time.Since(t).Nanoseconds()) / float64(n)
		runtime.ReadMemStats(&m1)
		if pass == 0 || ns < nsPerOp {
			nsPerOp = ns
			allocsPerOp = float64(m1.Mallocs-m0.Mallocs) / float64(n)
		}
	}
	return nsPerOp, allocsPerOp
}

func probeHost(load float64) *server.Server {
	h := server.New(server.Config{
		ID: "probe", Service: "web",
		Model:  server.MustModel("haswell2015"),
		Source: server.LoadFunc(func(time.Duration) float64 { return load }),
	})
	h.Tick(0)
	return h
}

// runProbes fills m with every source-C metric.
func runProbes(seed int64, m map[string]float64) error {
	defer debug.SetGCPercent(debug.SetGCPercent(smallHeapGCPercent))

	// workload: one server's utilization step, and the per-service advance.
	sh := workload.NewShared(workload.MustLookup("web"), seed)
	gen := workload.NewGenerator(sh, seed+1)
	m["workload.step_ns"], _ = measure(200000, func(i int) { sink += gen.Step(time.Duration(i) * time.Second) })
	adv := workload.NewShared(workload.MustLookup("web"), seed)
	m["workload.advance_ns"], _ = measure(200000, func(i int) { adv.Advance(time.Duration(i) * time.Second) })

	// server + platform: physics step, sensor read, RAPL write.
	host := probeHost(0.7)
	m["server.tick_ns"], _ = measure(400000, func(i int) { host.Tick(time.Duration(i) * time.Second) })
	msr := platform.NewMSR(probeHost(0.7), platform.Options{Seed: seed})
	m["platform.read_ns"], _ = measure(200000, func(int) {
		b, _ := msr.ReadPower() // a live host's sensor read cannot fail with FailureRate 0
		sink += float64(b.Total)
	})
	m["platform.set_limit_ns"], _ = measure(400000, func(i int) {
		_ = msr.SetPowerLimit(power.Watts(200 + i%50)) // MSR writes fail only on a crashed host
	})

	// power: one breaker thermal step.
	br := power.NewBreaker("probe", power.ClassRPP, power.KW(190))
	m["power.observe_ns"], _ = measure(400000, func(i int) { br.Observe(power.KW(185), time.Duration(i)*time.Second) })

	// topology: building the open_loop_10k tree.
	spec10k := topology.DefaultSpec().Scale(10000)
	var buildErr error
	ns, _ := measure(1, func(int) {
		if _, err := spec10k.Build(); err != nil {
			buildErr = err
		}
	})
	if buildErr != nil {
		return fmt.Errorf("probe topology.build: %w", buildErr)
	}
	m["topology.build_ms"] = ns / 1e6

	// simclock: schedule one event and run it.
	loop := simclock.NewSimLoop()
	m["simclock.event_ns"], m["simclock.allocs_per_event"] = measure(400000, func(int) {
		loop.After(time.Second, func() {})
		loop.Step()
	})

	// wire: the pull path's response message, there and back.
	ag := agent.New("probe", "web", "haswell2015", platform.NewMSR(probeHost(0.7), platform.Options{Seed: seed}))
	handler := ag.Handler()
	reading, err := handler(agent.MethodReadPower, nil)
	if err != nil {
		return fmt.Errorf("probe agent read: %w", err)
	}
	encoded := wire.Marshal(reading)
	var mAllocs, uAllocs float64
	m["wire.marshal_ns"], mAllocs = measure(400000, func(int) { sink += float64(len(wire.Marshal(reading))) })
	var decodeErr error
	m["wire.unmarshal_ns"], uAllocs = measure(400000, func(int) {
		var out agent.ReadPowerResponse
		if err := wire.Unmarshal(encoded, &out); err != nil {
			decodeErr = err
		}
		sink += out.TotalWatts
	})
	if decodeErr != nil {
		return fmt.Errorf("probe wire.unmarshal: %w", decodeErr)
	}
	m["wire.allocs_per_roundtrip"] = mAllocs + uAllocs

	// agent: the ReadPower handler called directly.
	m["agent.read_power_ns"], m["agent.read_power_allocs"] = measure(200000, func(int) {
		r, _ := handler(agent.MethodReadPower, nil) // checked once above
		sink += r.(*agent.ReadPowerResponse).TotalWatts
	})

	// rpc + faults: one in-proc call over a SimLoop to a trivial handler,
	// bare, behind a fault injector with no rules, and with one drop rule.
	call := func(wrap bool, rules ...faults.Rule) (float64, float64) {
		l := simclock.NewSimLoop()
		net := rpc.NewNetwork(l, 2*time.Millisecond, seed)
		net.Register("agent/probe", func(string, []byte) (wire.Message, error) { return rpc.Empty, nil })
		client := net.Dial("agent/probe")
		if wrap {
			in := faults.New(l, seed, nil)
			in.Add(rules...)
			client = in.WrapClient("agent/probe", client)
		}
		done := func([]byte, error) {}
		ns, allocs := measure(100000, func(int) {
			client.Call(agent.MethodReadPower, rpc.Empty, 2*time.Second, done)
			l.RunFor(10 * time.Millisecond)
		})
		l.RunFor(3 * time.Second) // let dropped calls' deadlines fire
		return ns, allocs
	}
	bareNS, bareAllocs := call(false)
	zeroNS, zeroAllocs := call(true)
	m["rpc.inproc_call_ns"], m["rpc.inproc_allocs_per_call"] = bareNS, bareAllocs
	m["faults.zero_rule_ns"], m["faults.zero_rule_allocs"] = zeroNS-bareNS, zeroAllocs-bareAllocs
	m["faults.ruled_ns"], _ = call(true, faults.Rule{Peer: "agent/*", Method: agent.MethodReadPower, DropP: 0.05})

	// core: one capping plan over 500 servers.
	services := []string{"web", "cache", "hadoop", "newsfeed"}
	servers := make([]core.ServerState, 500)
	for i := range servers {
		servers[i] = core.ServerState{
			ID:      fmt.Sprintf("s%03d", i),
			Service: services[i%len(services)],
			Power:   power.Watts(180 + float64(i%170)),
		}
	}
	prio := core.DefaultPriorityConfig()
	planNS, planAllocs := measure(300, func(int) { sink += float64(core.ComputePlan(servers, power.KW(8), prio).Achieved) })
	m["core.plan_500_us"], m["core.plan_500_allocs"] = planNS/1e3, planAllocs

	// statestore: one checkpoint append, snapshots at the default cadence.
	store := statestore.NewStore(simclock.NewSimLoop(), "probe", nil)
	w := store.NewWriter("probe", "probe")
	payload := make([]byte, 64)
	var appendErr error
	m["statestore.append_ns"], m["statestore.append_allocs"] = measure(100000, func(i int) {
		kind := statestore.KindDelta
		if w.SnapshotDue() {
			kind = statestore.KindSnapshot
		}
		if err := w.Append(kind, uint64(i), payload); err != nil {
			appendErr = err
		}
	})
	if appendErr != nil {
		return fmt.Errorf("probe statestore.append: %w", appendErr)
	}
	return nil
}

// telemetryOverhead is quiescent_day at a tenth of its round with a
// telemetry sink attached against the same run with none: the share of
// host time telemetry costs when it is on. Off must stay free, which is
// what every untraced metric already measures.
func telemetryOverhead(seed int64) (float64, error) {
	run := func(tel *telemetry.Sink) (float64, error) {
		cfg := quiescentConfig(seed, true)
		cfg.Telemetry = tel
		s, err := sim.New(cfg)
		if err != nil {
			return 0, err
		}
		s.Start()
		s.Loop.RunFor(warmUp)
		t := time.Now()
		s.Loop.RunFor(150 * time.Second)
		return time.Since(t).Seconds(), nil
	}
	var off, on []float64
	for i := 0; i < 3; i++ {
		a, err := run(nil)
		if err != nil {
			return 0, err
		}
		b, err := run(telemetry.NewSink())
		if err != nil {
			return 0, err
		}
		off, on = append(off, a), append(on, b)
	}
	return median(on)/median(off) - 1, nil
}
