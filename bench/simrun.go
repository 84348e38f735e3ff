package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"time"

	"dynamo/internal/core"
	"dynamo/internal/metrics"
	"dynamo/internal/server"
	"dynamo/internal/sim"
	"dynamo/internal/topology"
)

// outcome is everything a simulator round reports about the simulated
// system itself. All of it is virtual-time or count data, a pure function
// of (workload, seed): it repeats exactly between rounds, runs and commits
// that do not change behaviour, and digest covers all of it.
type outcome struct {
	servers  int
	virtualS float64
	ticks    int

	// control plane (zero on open_loop_10k)
	cycles          uint64 // leaf + upper cycles completed in the timed section
	invalidCycles   int    // timed-section journal records with Valid == false
	capEvents       uint64
	uncapEvents     uint64
	alerts          int
	retries         uint64
	leaseExpiries   uint64
	quarantinedPeak int
	quarantinedEnd  int
	faultsDropped   uint64
	faultsDelayed   uint64
	storeEntries    uint64
	storeBytes      int

	// physics
	trips          int
	cappedEnd      int
	dirtyServerSum int // Σ per tick of servers re-aggregated
	reaggDeviceSum int // Σ per tick of devices re-aggregated
	fullRebuilds   uint64
	loopEvents     uint64 // simclock events executed in the timed section

	// protected-device probe, once per virtual second
	protected     []string
	episodes      int // closed overdraw episodes
	openEpisodes  int
	episodesBy    map[string]int
	reactionsS    []float64 // per closed episode, virtual seconds
	peakHeat      float64   // max breaker heat over protected devices (1 = trip)
	cappedServerS float64   // Σ per second of capped servers
	maxContracted map[string]int

	digest uint64
}

// failedOps is the failure count set against attempted(): cycles that
// could not aggregate plus breaker trips.
func (o *outcome) failedOps() int { return o.invalidCycles + o.trips }

// attempted is controller cycles, or ticks where no controller runs.
func (o *outcome) attempted() int {
	if o.cycles > 0 {
		return int(o.cycles)
	}
	return o.ticks
}

func (o *outcome) failedOpsFrac() float64 {
	return ratio(float64(o.failedOps()), float64(o.attempted()))
}

func (o *outcome) cappedServerFrac() float64 {
	return ratio(o.cappedServerS, float64(o.servers)*o.virtualS)
}

// reactionS is the p-th percentile (0..100) of the closed episodes'
// lengths, in virtual seconds.
func (o *outcome) reactionS(p float64) float64 {
	return metrics.NewDistribution(o.reactionsS).Percentile(p)
}

// hostCost is what one timed round cost the host.
type hostCost struct {
	setupS  float64
	wallS   float64   // host time of the timed section (simulator: Σ of step times)
	stepUS  []float64 // one sample per step: a tick, or a call on tcp_pull
	mallocs uint64
	bytes   uint64
	heapMB  float64
}

// seams are the traced pass's instruments for one round: the wrapped agent
// seam and the span log. An untraced round gets nil and pays for neither.
type seams struct {
	agent *agentSpan
	log   *traceLog
}

// runSimRound builds the workload, runs one timed round step by step, and
// collects host cost and outcome. The timed section advances the loop one
// tick at a time from outside; probes run between steps and their time is
// not counted.
func runSimRound(w *simWorkload, seed int64, dynamo bool, sm *seams) (hostCost, *outcome, error) {
	var hc hostCost
	runtime.GC()
	t0 := time.Now()
	sc, err := w.build(seed, dynamo)
	if err != nil {
		return hc, nil, fmt.Errorf("%s: build: %w", w.name, err)
	}
	setup := time.Since(t0)
	hc.setupS = setup.Seconds()
	s := sc.sim
	var roundSpan, timedSpan int
	if sm != nil {
		roundSpan = sm.log.add(0, "traced", t0, 0, 0)
		sm.log.add(roundSpan, "setup", t0, setup, 0)
		timedSpan = sm.log.add(roundSpan, "timed", time.Now(), 0, 0)
		sm.agent.wrap(s)
	}

	p := newProbe(sc)
	steps := int(w.round / w.tick)
	hc.stepUS = make([]float64, 0, steps)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < steps; i++ {
		var busy time.Duration
		var calls uint64
		if sm != nil {
			busy, calls = sm.agent.busy, sm.agent.count
		}
		t := time.Now()
		s.Loop.RunFor(w.tick)
		d := time.Since(t)
		hc.wallS += d.Seconds()
		hc.stepUS = append(hc.stepUS, float64(d.Nanoseconds())/1e3)
		if sm != nil {
			// One step is the trace's unit of causation: a tick, plus the
			// controller cycles due in it and the agent calls they issue.
			step := sm.log.add(timedSpan, "step", t, d, 0)
			sm.log.add(step, "agent", t, sm.agent.busy-busy, sm.agent.count-calls)
		}
		p.observe(w.tick)
	}
	runtime.ReadMemStats(&m1)
	hc.mallocs = m1.Mallocs - m0.Mallocs
	hc.bytes = m1.TotalAlloc - m0.TotalAlloc
	if sm != nil {
		sm.log.close(timedSpan, hc.wallS, uint64(steps))
		sm.log.close(roundSpan, time.Since(t0).Seconds(), 0)
	}

	o := p.finish(w.round, steps)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	hc.heapMB = float64(m1.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(s)
	return hc, o, nil
}

// probe watches a running scenario from outside between steps.
type probe struct {
	sc      *scenario
	s       *sim.Sim
	servers []*server.Server
	leaves  []*core.Leaf  // sorted by device ID
	uppers  []*core.Upper // sorted by device ID
	// watched[i] is the upper controller of protected[i], nil for a leaf.
	watched []*core.Upper
	over    []bool
	since   []time.Duration
	start   time.Duration // loop time at the start of the timed section
	elapsed time.Duration
	base    struct {
		cycles, capEvents, uncapEvents, retries, events uint64
		alerts                                          int
	}
	o *outcome
}

func newProbe(sc *scenario) *probe {
	s := sc.sim
	p := &probe{sc: sc, s: s, start: s.Loop.Now(), o: &outcome{
		servers:       len(s.Topo.Servers()),
		episodesBy:    map[string]int{},
		maxContracted: map[string]int{},
	}}
	for _, n := range s.Topo.Servers() {
		p.servers = append(p.servers, s.Servers[string(n.ID)])
	}
	if h := s.Hierarchy; h != nil {
		for _, id := range sortedIDs(h.Leaves) {
			p.leaves = append(p.leaves, h.Leaves[id])
		}
		for _, id := range sortedIDs(h.Uppers) {
			p.uppers = append(p.uppers, h.Uppers[id])
		}
	}
	for _, n := range sc.protected {
		p.o.protected = append(p.o.protected, string(n.ID))
		p.o.episodesBy[string(n.ID)] = 0
		var up *core.Upper
		if s.Hierarchy != nil {
			up = s.Hierarchy.Upper(n.ID)
		}
		if up != nil {
			p.o.maxContracted[string(n.ID)] = 0
		}
		p.watched = append(p.watched, up)
	}
	p.over = make([]bool, len(sc.protected))
	p.since = make([]time.Duration, len(sc.protected))
	p.base.cycles, p.base.capEvents, p.base.uncapEvents, p.base.retries = p.counters()
	p.base.alerts = len(s.Alerts)
	p.base.events = s.Loop.Steps()
	return p
}

func sortedIDs[V any](m map[topology.NodeID]V) []topology.NodeID {
	ids := make([]topology.NodeID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func (p *probe) counters() (cycles, caps, uncaps, retries uint64) {
	for _, l := range p.leaves {
		cycles += l.Cycles()
		caps += l.CapEvents()
		uncaps += l.UncapEvents()
		retries += l.Retries()
	}
	for _, u := range p.uppers {
		cycles += u.Cycles()
		caps += u.CapEvents()
		uncaps += u.UncapEvents()
		retries += u.Retries()
	}
	return
}

// observe runs after every step. Episode timing has the resolution of the
// step; the scored workloads step once per virtual second.
func (p *probe) observe(step time.Duration) {
	p.elapsed += step
	s, o := p.s, p.o
	st := s.AggregationStats()
	o.dirtyServerSum += st.DirtyServers
	o.reaggDeviceSum += st.ReaggregatedDevices

	if len(p.sc.protected) == 0 {
		return
	}
	capped := 0
	for _, sv := range p.servers {
		if _, ok := sv.Limit(); ok {
			capped++
		}
	}
	o.cappedServerS += float64(capped) * step.Seconds()
	q := 0
	for _, l := range p.leaves {
		q += l.QuarantinedCount()
	}
	if q > o.quarantinedPeak {
		o.quarantinedPeak = q
	}
	for i, n := range p.sc.protected {
		if h := s.Breakers[n.ID].Heat(); h > o.peakHeat {
			o.peakHeat = h
		}
		over := s.DevicePower(n.ID) > n.Rating
		switch {
		case over && !p.over[i]:
			p.since[i] = p.elapsed
		case !over && p.over[i]:
			o.episodes++
			o.episodesBy[string(n.ID)]++
			o.reactionsS = append(o.reactionsS, (p.elapsed - p.since[i]).Seconds())
		}
		p.over[i] = over
		if up := p.watched[i]; up != nil {
			if c := len(up.ContractedChildren()); c > o.maxContracted[string(n.ID)] {
				o.maxContracted[string(n.ID)] = c
			}
		}
	}
}

// finish reads the end-of-round state and computes the digest.
func (p *probe) finish(round time.Duration, steps int) *outcome {
	s, o := p.s, p.o
	o.virtualS = round.Seconds()
	o.ticks = steps
	cycles, caps, uncaps, retries := p.counters()
	o.cycles = cycles - p.base.cycles
	o.capEvents = caps - p.base.capEvents
	o.uncapEvents = uncaps - p.base.uncapEvents
	o.retries = retries - p.base.retries
	o.alerts = len(s.Alerts) - p.base.alerts
	o.loopEvents = s.Loop.Steps() - p.base.events
	o.leaseExpiries = s.LeaseExpiries()
	o.trips = len(s.Trips)
	o.cappedEnd = s.CappedServerCount()
	o.fullRebuilds = s.AggregationStats().FullRebuilds
	for _, over := range p.over {
		if over {
			o.openEpisodes++
		}
	}
	for _, l := range p.leaves {
		o.quarantinedEnd += l.QuarantinedCount()
	}
	if s.Faults != nil {
		o.faultsDropped, o.faultsDelayed, _ = s.Faults.Counts()
	}
	if s.Store != nil {
		for _, dev := range s.Store.Devices() {
			o.storeEntries += s.Store.NextSeq(dev) - 1
			entries, _ := s.Store.EntriesFrom(dev, 0)
			for _, e := range entries {
				o.storeBytes += len(e.Payload)
			}
		}
	}

	d := digester{fnv.New64a()}
	journal := func(id string, cycles, caps, uncaps uint64, recs []core.DecisionRecord) {
		d.str(id)
		d.u64(cycles, caps, uncaps)
		for _, r := range recs {
			if !r.Valid && r.Time > p.start {
				o.invalidCycles++
			}
			d.u64(r.Cycle, uint64(r.Time), uint64(r.Failures), uint64(r.Action), uint64(r.ServersPlanned))
			d.f64(float64(r.Agg), float64(r.EffLimit), float64(r.Target), float64(r.Achieved), float64(r.Shortfall))
			d.bool(r.Valid)
		}
	}
	for _, l := range p.leaves {
		journal(l.DeviceID(), l.Cycles(), l.CapEvents(), l.UncapEvents(), l.Journal().Records())
	}
	for _, u := range p.uppers {
		journal(u.DeviceID(), u.Cycles(), u.CapEvents(), u.UncapEvents(), u.Journal().Records())
	}
	for _, t := range s.Trips {
		d.str(string(t.Device))
		d.u64(uint64(t.At))
		d.f64(float64(t.Draw))
	}
	for _, dev := range s.Topo.Devices() {
		if series := s.Series(dev.ID); series != nil {
			d.str(string(dev.ID))
			d.f64(series.Values()...)
		}
	}
	d.u64(uint64(o.alerts), o.leaseExpiries, o.faultsDropped, o.faultsDelayed, o.storeEntries,
		uint64(o.cappedEnd), uint64(o.episodes), uint64(o.openEpisodes), uint64(o.quarantinedPeak))
	d.f64(o.reactionsS...)
	d.f64(o.peakHeat, o.cappedServerS, float64(s.TotalPower()))
	o.digest = d.h.Sum64()
	return o
}

// digester feeds fixed-width encodings of values into an FNV-64a hash.
type digester struct{ h hash.Hash64 }

func (d digester) u64(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		d.h.Write(b[:])
	}
}

func (d digester) f64(vs ...float64) {
	for _, v := range vs {
		d.u64(math.Float64bits(v))
	}
}

func (d digester) str(s string) {
	d.u64(uint64(len(s)))
	d.h.Write([]byte(s))
}

func (d digester) bool(v bool) {
	if v {
		d.u64(1)
	} else {
		d.u64(0)
	}
}

// checkOutcome applies the output checks every simulator workload shares
// and then the workload's own.
func checkOutcome(w *simWorkload, o *outcome) []string {
	var bad []string
	if o.trips != 0 {
		bad = append(bad, fmt.Sprintf("%d breaker trips", o.trips))
	}
	if w.controlled {
		if o.cappedEnd != 0 {
			bad = append(bad, fmt.Sprintf("%d servers still capped at the end", o.cappedEnd))
		}
		if o.cycles == 0 {
			bad = append(bad, "no controller cycle completed")
		}
		if o.openEpisodes != 0 {
			bad = append(bad, fmt.Sprintf("%d overdraw episodes still open at the end", o.openEpisodes))
		}
	}
	return append(bad, w.check(o)...)
}
