package main

import (
	"fmt"
	"io"
	"time"

	"dynamo/internal/agent"
	"dynamo/internal/metrics"
)

// options are the inputs of one run of one workload.
type options struct {
	seed    int64
	seconds float64 // host time to spend in timed sections
	// minRounds is the least number of rounds (each with its own set-up)
	// a run makes, however short --seconds is.
	minRounds int
	out       io.Writer // human-readable report; the JSON result is main's
}

// report is what one run of one workload produced.
type report struct {
	attempted int
	failed    int
	metrics   map[string]float64
	problems  []string // output-check failures; empty means correct
}

func (r *report) problemf(format string, args ...interface{}) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func findSim(name string) *simWorkload {
	for _, w := range simWorkloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// workloadNames lists the five workloads in the order `--workload all`
// runs them.
func workloadNames() []string {
	var names []string
	for _, w := range simWorkloads {
		names = append(names, w.name)
	}
	return append(names, "tcp_pull")
}

// runWorkload runs one workload untraced (end-to-end metrics) or traced
// (per-layer metrics).
func runWorkload(name string, traced bool, opt options) (*report, error) {
	w := findSim(name)
	switch {
	case w != nil && traced:
		return tracedSim(w, opt)
	case w != nil:
		return untracedSim(w, opt)
	case name == "tcp_pull" && traced:
		return tracedTCP(opt)
	case name == "tcp_pull":
		return untracedTCP(opt)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
}

// hostSamples accumulates the per-round host costs of a run and reduces
// them to the end-to-end metrics.
type hostSamples struct {
	setups, rates, allocs, bytes []float64
	steps                        []float64 // pooled over rounds
	firstHeapMB                  float64
	measuredS                    float64
}

// add takes one round's cost and the work its timed section did.
func (h *hostSamples) add(hc hostCost, work float64) {
	if len(h.setups) == 0 {
		h.firstHeapMB = hc.heapMB
	}
	h.setups = append(h.setups, hc.setupS)
	h.rates = append(h.rates, work/hc.wallS)
	h.allocs = append(h.allocs, float64(hc.mallocs)/work)
	h.bytes = append(h.bytes, float64(hc.bytes)/work)
	h.steps = append(h.steps, hc.stepUS...)
	h.measuredS += hc.wallS
}

func (h *hostSamples) more(opt options) bool {
	return len(h.setups) < opt.minRounds || h.measuredS < opt.seconds
}

// endToEndMetrics reduces the samples: medians over rounds for per-round
// numbers, the median of the pooled steps, and the first round's heap
// (later rounds also carry what earlier ones left to lazy clean-up). The
// tail of the step times is not among them: see stepTail.
func (h *hostSamples) endToEndMetrics() map[string]float64 {
	steps := metrics.NewDistribution(h.steps)
	return map[string]float64{
		"setup_s":          median(h.setups),
		"work_per_s":       median(h.rates),
		"step_p50_us":      steps.Percentile(50),
		"allocs_per_work":  median(h.allocs),
		"bytes_per_work":   median(h.bytes),
		"heap_retained_mb": h.firstHeapMB,
	}
}

// stepTail reports the upper percentiles of the untraced rounds' steps
// among the per-layer metrics, where no bound applies. On a shared host a
// neighbour slows some share of a run's steps for a minute at a time; a
// run's median moves only when most of its steps are hit, its tail as soon
// as a few percent are, so between runs of the same code step p95 spread
// 28% and p99 41% on open_loop_10k, past the largest bound there is.
func stepTail(m map[string]float64, stepUS []float64) {
	steps := metrics.NewDistribution(stepUS)
	m["steps.p95_us"] = steps.Percentile(95)
	m["steps.p99_us"] = steps.Percentile(99)
}

func untracedSim(w *simWorkload, opt options) (*report, error) {
	rep := &report{}
	var h hostSamples
	var first *outcome
	for h.more(opt) {
		hc, o, err := runSimRound(w, opt.seed, w.controlled, nil)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = o
		} else if o.digest != first.digest {
			rep.problemf("round %d: outcome digest %016x differs from round 0's %016x on the same seed", len(h.setups), o.digest, first.digest)
		}
		h.add(hc, float64(o.servers)*o.virtualS)
		rep.attempted += o.attempted()
		rep.failed += o.failedOps()
	}
	rep.problems = append(rep.problems, checkOutcome(w, first)...)
	rep.metrics = h.endToEndMetrics()
	printOutcome(opt.out, w.name, first, len(h.setups), len(h.steps))
	return rep, nil
}

func untracedTCP(opt options) (*report, error) {
	rep := &report{}
	var h hostSamples
	for h.more(opt) {
		c, err := runTCPRound(opt.seed, nil)
		if err != nil {
			return nil, err
		}
		h.add(c.hostCost, float64(c.calls))
		rep.attempted += c.calls
		rep.failed += c.failed
	}
	if rep.failed != 0 {
		rep.problemf("%d of %d calls errored, timed out, or returned a wrong answer", rep.failed, rep.attempted)
	}
	rep.metrics = h.endToEndMetrics()
	fmt.Fprintf(opt.out, "tcp_pull: %d rounds, %d calls sampled, %d failed\n", len(h.setups), len(h.steps), rep.failed)
	return rep, nil
}

// zeroPerLayer returns every per-layer metric at 0, the value of a metric
// that does not apply to the workload.
func zeroPerLayer() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for name := range perLayer {
		m[name] = 0
	}
	return m
}

var callMetric = map[string]string{
	agent.MethodReadPower:  "agent.calls.read_power",
	agent.MethodSetCap:     "agent.calls.set_cap",
	agent.MethodClearCap:   "agent.calls.clear_cap",
	agent.MethodRenewLease: "agent.calls.renew_lease",
}

// agentMetrics reports the wrapped agent seam: median busy time over the
// traced rounds, and the first round's calls by method.
func agentMetrics(m map[string]float64, busyS []float64, first *agentSpan) {
	m["agent.busy_s"] = median(busyS)
	for method, n := range first.calls {
		if name, ok := callMetric[method]; ok {
			m[name] = float64(n)
		}
	}
}

// tracedSim is the traced pass of a simulator workload. Each iteration
// runs the workload three times on the same seed: untraced (the reference
// for tracing overhead), traced (wrapped agent seam, step spans), and, for
// a controlled workload, as its Dynamo-off twin, whose host time is the
// physics span. Per-iteration times are reduced to medians; counts are
// read from the first traced round (they repeat exactly).
func tracedSim(w *simWorkload, opt options) (*report, error) {
	rep := &report{metrics: zeroPerLayer()}
	m := rep.metrics
	log := newTraceLog(w.name, opt.seed)
	var untracedS, tracedS, physicsS, busyS, stepUS []float64
	var first *outcome
	var firstAgent *agentSpan
	measured := 0.0
	for iter := 0; iter < opt.minRounds || measured < opt.seconds; iter++ {
		t := time.Now()
		hcU, oU, err := runSimRound(w, opt.seed, w.controlled, nil)
		if err != nil {
			return nil, err
		}
		log.add(0, "untraced", t, time.Since(t), uint64(oU.ticks))
		span := newAgentSpan()
		hcT, oT, err := runSimRound(w, opt.seed, w.controlled, &seams{agent: span, log: log})
		if err != nil {
			return nil, err
		}
		if oT.digest != oU.digest {
			rep.problemf("traced outcome digest %016x differs from untraced %016x", oT.digest, oU.digest)
		}
		physics := hcU.wallS // an uncontrolled workload is all physics
		if w.controlled {
			t := time.Now()
			hcP, oP, err := runSimRound(w, opt.seed, false, nil)
			if err != nil {
				return nil, err
			}
			log.add(0, "twin", t, time.Since(t), uint64(oP.ticks))
			physics = hcP.wallS
			measured += hcP.wallS
		}
		measured += hcU.wallS + hcT.wallS
		untracedS = append(untracedS, hcU.wallS)
		stepUS = append(stepUS, hcU.stepUS...)
		tracedS = append(tracedS, hcT.wallS)
		physicsS = append(physicsS, physics)
		busyS = append(busyS, span.busy.Seconds())
		if first == nil {
			first, firstAgent = oT, span
		}
		rep.attempted += oT.attempted()
		rep.failed += oT.failedOps()
	}
	rep.problems = append(rep.problems, checkOutcome(w, first)...)
	o := first

	// A: differential spans.
	wall, traced, physics, busy := median(untracedS), median(tracedS), median(physicsS), median(busyS)
	m["sim.physics_s"] = physics
	m["sim.physics_share"] = ratio(physics, wall)
	m["sim.tick_us"] = ratio(physics*1e6, float64(o.ticks))
	m["trace.overhead_frac"] = traced/wall - 1
	stepTail(m, stepUS)
	if w.controlled {
		m["core.control_s"] = traced - physics - busy
		m["core.cycle_us"] = ratio(m["core.control_s"]*1e6, float64(o.cycles))
	}

	// B: seams and counters.
	agentMetrics(m, busyS, firstAgent)
	m["sim.dirty_server_frac"] = ratio(float64(o.dirtyServerSum), float64(o.servers*o.ticks))
	m["sim.reagg_devices_per_tick"] = ratio(float64(o.reaggDeviceSum), float64(o.ticks))
	m["sim.full_rebuilds"] = float64(o.fullRebuilds)
	m["simclock.events"] = float64(o.loopEvents)
	if w.controlled {
		// One leaf cycle pulls every server once, every 3 virtual seconds.
		m["simclock.events_per_server_cycle"] = ratio(float64(o.loopEvents), float64(o.servers)*o.virtualS/3)
	}
	m["core.cycles"] = float64(o.cycles)
	m["core.cap_events"] = float64(o.capEvents)
	m["core.uncap_events"] = float64(o.uncapEvents)
	m["core.invalid_cycles"] = float64(o.invalidCycles)
	m["core.quarantined_peak"] = float64(o.quarantinedPeak)
	m["rpc.retry_calls"] = float64(o.retries)
	m["faults.dropped"] = float64(o.faultsDropped)
	m["faults.delayed"] = float64(o.faultsDelayed)
	m["statestore.entries"] = float64(o.storeEntries)
	m["statestore.bytes"] = float64(o.storeBytes)

	m["outcome.reaction_p50_s"] = o.reactionS(50)
	m["outcome.reaction_max_s"] = o.reactionS(100)
	m["outcome.peak_breaker_heat"] = o.peakHeat
	m["outcome.capped_server_frac"] = o.cappedServerFrac()
	m["outcome.failed_ops_frac"] = o.failedOpsFrac()
	m["outcome.episodes"] = float64(o.episodes)
	m["outcome.lease_expiries"] = float64(o.leaseExpiries)

	if w.name == "quiescent_day" {
		f, err := telemetryOverhead(opt.seed)
		if err != nil {
			return nil, err
		}
		m["telemetry.on_overhead_frac"] = f
	}
	if err := runProbes(opt.seed, m); err != nil {
		return nil, err
	}
	printOutcome(opt.out, w.name, o, len(tracedS), o.ticks*len(tracedS))
	fmt.Fprintf(opt.out, "%s: host time per round: untraced %.3fs = physics %.3fs + agent %.3fs + control %.3fs, off by the tracing overhead of %.1f%%\n",
		w.name, wall, physics, busy, m["core.control_s"], 100*m["trace.overhead_frac"])
	return rep, log.write()
}

// tracedTCP is the traced pass of tcp_pull: per iteration one untraced and
// one traced round. There is no simulator, so the simulator's layers read 0.
func tracedTCP(opt options) (*report, error) {
	rep := &report{metrics: zeroPerLayer()}
	m := rep.metrics
	log := newTraceLog("tcp_pull", opt.seed)
	// The probes go first: for two seconds after a round the runtime is
	// still reaping the round's stopped per-call timeout timers, and a probe
	// that shares the P with that reads three to five times too long.
	if err := runProbes(opt.seed, m); err != nil {
		return nil, err
	}
	var untracedS, tracedS, busyS, stepUS, rtts []float64
	var firstAgent *agentSpan
	late := 0
	measured := 0.0
	for iter := 0; iter < opt.minRounds || measured < opt.seconds; iter++ {
		t := time.Now()
		cU, err := runTCPRound(opt.seed, nil)
		if err != nil {
			return nil, err
		}
		log.add(0, "untraced", t, time.Since(t), uint64(cU.calls))
		span := newAgentSpan()
		cT, err := runTCPRound(opt.seed, &seams{agent: span, log: log})
		if err != nil {
			return nil, err
		}
		measured += cU.wallS + cT.wallS
		untracedS = append(untracedS, cU.wallS)
		stepUS = append(stepUS, cU.stepUS...)
		tracedS = append(tracedS, cT.wallS)
		busyS = append(busyS, span.busy.Seconds())
		rtts = append(rtts, cT.stepUS...)
		late += cT.late
		if firstAgent == nil {
			firstAgent = span
		}
		rep.attempted += cT.calls
		rep.failed += cT.failed
	}
	if rep.failed != 0 {
		rep.problemf("%d of %d calls errored, timed out, or returned a wrong answer", rep.failed, rep.attempted)
	}
	agentMetrics(m, busyS, firstAgent)
	m["rpc.tcp_rtt_p999_us"] = metrics.NewDistribution(rtts).Percentile(99.9)
	m["rpc.tcp_late_or_timeout"] = float64(late)
	m["outcome.failed_ops_frac"] = ratio(float64(rep.failed), float64(rep.attempted))
	m["trace.overhead_frac"] = median(tracedS)/median(untracedS) - 1
	stepTail(m, stepUS)
	fmt.Fprintf(opt.out, "tcp_pull: %d traced rounds, %d calls sampled, %d failed\n", len(tracedS), len(rtts), rep.failed)
	return rep, log.write()
}

// printOutcome prints a simulator workload's behaviour: everything here is
// virtual-time or count data and must repeat exactly for a seed.
func printOutcome(out io.Writer, name string, o *outcome, rounds, steps int) {
	fmt.Fprintf(out, "%s: %d rounds, %d steps sampled; per round: %d servers x %.0f virtual s, %d ticks, %d controller cycles (%d invalid), %d simclock events\n",
		name, rounds, steps, o.servers, o.virtualS, o.ticks, o.cycles, o.invalidCycles, o.loopEvents)
	fmt.Fprintf(out, "%s: cap/uncap events %d/%d, alerts %d, trips %d, capped at end %d, retries %d, lease expiries %d, quarantined peak/end %d/%d, faults dropped %d, store entries %d\n",
		name, o.capEvents, o.uncapEvents, o.alerts, o.trips, o.cappedEnd, o.retries, o.leaseExpiries, o.quarantinedPeak, o.quarantinedEnd, o.faultsDropped, o.storeEntries)
	if len(o.protected) > 0 {
		fmt.Fprintf(out, "%s: %d overdraw episodes closed (%d open) on %d protected devices; reaction_p50_s %.0f, reaction_max_s %.0f (virtual s), peak_breaker_heat %.6g, capped_server_frac %.6g\n",
			name, o.episodes, o.openEpisodes, len(o.protected), o.reactionS(50), o.reactionS(100), o.peakHeat, o.cappedServerFrac())
	}
	fmt.Fprintf(out, "%s: failed_ops_frac %.6g, outcome_digest %016x\n", name, o.failedOpsFrac(), o.digest)
}
