package core

import (
	"time"

	"dynamo/internal/agent"
	"dynamo/internal/power"
	"dynamo/internal/rpc"
	"dynamo/internal/simclock"
	"dynamo/internal/statestore"
	"dynamo/internal/telemetry"
)

// LeafConfig configures a leaf power controller (paper §III-C).
type LeafConfig struct {
	// DeviceID names the protected power device (an RPP or PDU breaker in
	// the Facebook deployment; rack-level works too).
	DeviceID string
	// Limit is the device's physical breaker limit.
	Limit power.Watts
	// Quota is the device's planned peak ("power quota") used by the
	// parent's punish-offender-first algorithm.
	Quota power.Watts
	// Bands is the three-band algorithm configuration.
	Bands BandConfig
	// Priorities configures service priority groups, SLA floors, and the
	// high-bucket-first bucket width.
	Priorities PriorityConfig
	// PollInterval is the pull cycle; the paper picks 3 s ("both stable
	// readings and fast reaction times", §III-C1).
	PollInterval time.Duration
	// PullTimeout bounds each agent power pull.
	PullTimeout time.Duration
	// NonServerDraw is power drawn from the same breaker by non-server
	// components (top-of-rack switches); monitored but uncappable
	// (paper §III-E).
	NonServerDraw power.Watts
	// DryRun computes and reports capping plans without actuating them
	// (paper §VI, service-aware testing).
	DryRun bool
	// Validator, when set, returns an independent coarse power reading
	// from the breaker itself, used to cross-check the aggregation
	// (paper §VI, "use the power readings from the power breaker to
	// validate"). ok=false means no fresh reading is available.
	Validator func() (reading power.Watts, ok bool)
	// UsePID selects the PID capping algorithm instead of the default
	// three-band control (the paper's future-work "more complex power
	// capping algorithms").
	UsePID bool
	// Alerts receives operator alerts.
	Alerts AlertFunc
	// Telemetry, when set, receives operational metrics, and the
	// controller keeps an event ring for Status. nil (the default)
	// disables telemetry entirely: the control cycle performs no
	// telemetry work, keeping the simulation path byte-identical and
	// allocation-free.
	Telemetry *telemetry.Sink
	// Scheduler, when set, runs this controller's observe+decide phase on
	// the shared cohort worker pool and its act phase serially in device
	// order. nil runs all phases inline at cycle completion.
	Scheduler *CohortScheduler
	// Checkpoint, when set, receives this controller's recoverable state
	// (journal, cycle counter, band/PID internals, last plan) at the end of
	// every act phase, so a backup can adopt it from the replicated state
	// store after a failure. nil disables checkpointing.
	Checkpoint *statestore.Writer
	// Retry bounds per-call RPC retries toward agents (pulls, caps and
	// uncaps). Zero disables retries.
	Retry RetryConfig
	// QuarantineThreshold is the per-agent circuit breaker: after this
	// many consecutive failed pulls the agent is quarantined — excluded
	// from pulls and actuation, covered by failure estimation — until a
	// half-open probe succeeds. 0 disables quarantining.
	QuarantineThreshold int
	// CapLeaseTTL, when positive, stamps every SetCap with a lease of
	// this TTL, and every pull of a capped agent renews it (the pull's
	// agent.ReadPowerRequest), so caps self-release on agents this
	// controller can no longer reach (and on all agents if this controller
	// dies). An agent that predates renewing pulls lets the caps lapse at
	// the TTL: the fail-safe direction.
	CapLeaseTTL time.Duration
}

const (
	// maxFailureFrac is the fraction of failed pulls beyond which the
	// aggregation is declared invalid and no action is taken (paper: 20%).
	maxFailureFrac = 0.20
	// validationTolerance is the relative disagreement with the breaker
	// reading above which a warning is raised. The breaker meter refreshes
	// on the order of a minute (paper §III-C1), so the cross-check must
	// tolerate normal power movement over that staleness window.
	validationTolerance = 0.20
	// quarantineProbeEvery is the cadence, in cycles, of half-open probe
	// pulls to quarantined agents.
	quarantineProbeEvery = 2
	// restartEvery is the cadence, in cycles, of restarts of an agent that
	// stays quarantined: five probes get to show a restart took (or an
	// agent booting slowly to answer) before the next restart.
	restartEvery = 10
	// maxRestartsPerCycle bounds the restarts one leaf requests per cycle:
	// a correlated outage (a partition, a bad push) is not cured by
	// restarting every agent behind it at once.
	maxRestartsPerCycle = 4
)

func (c *LeafConfig) fillDefaults() {
	if c.PollInterval <= 0 {
		c.PollInterval = 3 * time.Second
	}
	if c.PullTimeout <= 0 {
		c.PullTimeout = c.PollInterval * 2 / 3
	}
	if c.Priorities.BucketSize == 0 && c.Priorities.Priority == nil {
		c.Priorities = DefaultPriorityConfig()
	}
}

// AgentRef identifies one downstream agent for the leaf controller.
// Service and Generation seed the controller's server metadata (paper
// §III-C3: "the leaf power controller uses meta-data about all the servers
// it controls") so failure estimation works even for servers that have
// never responded; live responses keep the metadata fresh.
type AgentRef struct {
	ServerID   string
	Service    string
	Generation string
	Client     rpc.Client
}

// agentState is the controller's cached view of one agent.
type agentState struct {
	pull
	service    string
	svc        int // service's index in Leaf.services
	generation string

	lastPower float64
	reading   float64 // this cycle's reading, estimated when the pull failed
	everSeen  bool

	// Circuit-breaker state (quarantine). consecFails counts consecutive
	// failed pulls; at the configured threshold the agent is quarantined:
	// excluded from pulls (except periodic half-open probes) and from
	// actuation, with estimation covering its draw. A successful pull
	// re-admits it.
	quarantined bool
	consecFails int32
	quarCycles  int32
}

// serviceAgg is one service's figures. sum and cnt are this cycle's
// responders, for failure estimation; last and held are what the last
// aggregate found over every agent (ServiceBreakdown).
type serviceAgg struct {
	name     string
	priority int // cfg.Priorities.priorityOf(name)
	sum      float64
	cnt      int
	last     power.Watts // readings and estimates summed over the agents that had this service
	held     int         // how many agents had it; 0 leaves it out of the breakdown
}

// Leaf is a leaf power controller: the cycle kernel over server agents,
// with failure estimation, per-agent quarantine, priority-aware capping
// plans and cap leases. Like the kernel it is confined to its event loop.
type Leaf struct {
	cycleKernel
	cfg LeafConfig // the leaf-only knobs; what both levels share lives in the kernel

	list []*agentState // the agents in configuration order; every per-cycle loop walks this

	// Reused across pulls by the observe phase: one response message per
	// controller, not per reading, decoded through the kernel's dec.
	msg agent.ReadPowerResponse

	// Services by index, interned by NewLeaf and by aggregate when a reply
	// names one not seen before: every per-service figure of a cycle is a
	// field of one of these, found by agentState.svc.
	services []serviceAgg
	svcIndex map[string]int

	// planner computes the capping plan in scratch kept across cycles;
	// caps are the members it cuts, which act sends.
	planner planner
	caps    []member

	// What this cycle's observe+decide phase found beyond the kernel's
	// cyclePlan: the circuit-breaker outcomes.
	quarantinedNow int // agents in quarantine after this cycle
	quarantinedNew int // breakers tripped this cycle
	readmitted     int // agents re-admitted this cycle

	restart  func(serverID string) // SetRestart's hook; nil disables restarts
	restarts []*agentState         // quarantined agents due a restart this cycle
}

// NewLeaf creates a leaf controller over the given agents.
func NewLeaf(loop simclock.Loop, cfg LeafConfig, agents []AgentRef) *Leaf {
	cfg.fillDefaults()
	l := &Leaf{
		cfg:      cfg,
		list:     make([]*agentState, 0, len(agents)),
		svcIndex: map[string]int{},
	}
	pulls := make([]*pull, 0, len(agents))
	for _, a := range agents {
		st := &agentState{
			pull:    pull{id: a.ServerID, client: a.Client},
			service: a.Service, svc: l.intern(a.Service), generation: a.Generation,
		}
		l.list = append(l.list, st)
		pulls = append(pulls, &st.pull)
	}
	if cfg.UsePID {
		l.pid = &pidState{}
	}
	l.init(loop, l, cycleConfig{
		kind: "leaf", pullMethod: agent.MethodReadPower, pullOp: "power pull",
		deviceID: cfg.DeviceID, limit: cfg.Limit, quota: cfg.Quota, bands: cfg.Bands,
		pollInterval: cfg.PollInterval, pullTimeout: cfg.PullTimeout,
		dryRun: cfg.DryRun, capLease: cfg.CapLeaseTTL,
		alerts: cfg.Alerts, sched: cfg.Scheduler, ckpt: cfg.Checkpoint,
	}, cfg.Telemetry, cfg.Retry, pulls)
	return l
}

// intern returns service's index in l.services, adding it if it is new.
func (l *Leaf) intern(service string) int {
	i, ok := l.svcIndex[service]
	if !ok {
		i = len(l.services)
		l.svcIndex[service] = i
		l.services = append(l.services, serviceAgg{name: service, priority: l.cfg.Priorities.priorityOf(service)})
	}
	return i
}

// QuarantinedCount returns how many agents are currently quarantined by
// the circuit breaker.
func (l *Leaf) QuarantinedCount() int {
	n := 0
	for _, a := range l.list {
		if a.quarantined {
			n++
		}
	}
	return n
}

// CappedCount returns how many servers currently hold a cap we sent.
func (l *Leaf) CappedCount() int { return l.cappedCount() }

// ServiceBreakdown returns the last cycle's per-service power, over the
// services some agent had.
func (l *Leaf) ServiceBreakdown() map[string]power.Watts {
	out := map[string]power.Watts{}
	for i := range l.services {
		if s := &l.services[i]; s.held > 0 {
			out[s.name] = s.last
		}
	}
	return out
}

// Contract returns the current contractual limit (0 when none).
func (l *Leaf) Contract() power.Watts { return l.contract }

// SetPollInterval changes the pull cycle (ablation studies compare the
// paper's 3 s cycle against slower sampling). If a cycle is currently
// collecting or deciding, the change is deferred to the cycle boundary so
// it cannot race an observe phase running on a cohort worker.
func (l *Leaf) SetPollInterval(d time.Duration) {
	if d <= 0 {
		return
	}
	l.atBoundary(func() {
		l.pollInterval = d
		l.pullTimeout = d * 2 / 3
		l.ticker.SetPeriod(d)
	})
}

// SetBands replaces the band configuration (used by experiments that
// manually lower the capping threshold, as in Fig 15). Mid-cycle calls
// are validated immediately but applied at the next cycle boundary.
func (l *Leaf) SetBands(b BandConfig) error {
	if err := b.Validate(); err != nil {
		return err
	}
	l.atBoundary(func() { l.bands = b })
	return nil
}

// SetRestart installs the hook that restarts an agent's process, the
// paper's watchdog (§III-E): the environment (simulator or init system)
// owns the mechanism. The leaf requests a restart, from its act phase,
// when an agent enters quarantine and every restartEvery cycles while it
// stays there, at most maxRestartsPerCycle per cycle, each with a warning
// alert; the half-open probe then re-admits the restarted agent. nil (the
// default) disables restarts, and without a QuarantineThreshold the hook
// never fires. Like SetBands, a mid-cycle call applies at the boundary.
func (l *Leaf) SetRestart(restart func(serverID string)) {
	l.atBoundary(func() { l.restart = restart })
}

// DeferredReconfigs returns how many SetBands/SetPollInterval calls were
// deferred to a cycle boundary because a cycle was in flight.
func (l *Leaf) DeferredReconfigs() uint64 { return l.deferredReconfigs }

// selectPulls leaves quarantined agents out (estimation covers them)
// except on their probe cycles, where a single half-open pull — one
// unretried attempt, so a still-dead agent cannot consume the retry
// budget — tests whether they can be re-admitted.
func (l *Leaf) selectPulls() (skipped int) {
	for _, st := range l.list {
		st.reading = 0
		if !st.quarantined {
			continue
		}
		st.quarCycles++
		st.skip = st.quarCycles%quarantineProbeEvery != 0
		st.probe = !st.skip
		if st.skip {
			skipped++
		}
	}
	return skipped
}

// aggregate decodes the agents' answers, runs the circuit-breaker
// accounting and estimates the power of agents that did not answer.
func (l *Leaf) aggregate(p *cyclePlan) (power.Watts, bool) {
	l.caps = l.caps[:0]
	l.restarts = l.restarts[:0]
	l.quarantinedNow, l.quarantinedNew, l.readmitted = 0, 0, 0

	for _, st := range l.list {
		if !st.rawValid {
			continue
		}
		// Decode into the controller's one message, preloaded with what
		// this agent said last time so unchanged strings are kept.
		r := &l.msg
		r.Service, r.Generation = st.service, st.generation
		l.dec.Reset(st.raw)
		if derr := r.UnmarshalWire(&l.dec); derr == nil {
			st.ok = true
			st.reading = r.TotalWatts
			st.lastPower = r.TotalWatts
			st.everSeen = true
			if r.Service != st.service {
				st.service, st.svc = r.Service, l.intern(r.Service)
			}
			st.generation = r.Generation
			st.capped = r.Capped
		}
	}

	// Circuit-breaker accounting: consecutive failed pulls trip a
	// per-agent quarantine; any successful pull (including a half-open
	// probe) re-admits the agent. An agent entering quarantine (quarCycles
	// 0), and one still in it every restartEvery cycles, is due a restart,
	// which act requests: this phase may run on a cohort worker.
	if l.cfg.QuarantineThreshold > 0 {
		for _, st := range l.list {
			if st.ok {
				st.consecFails = 0
				if st.quarantined {
					st.quarantined = false
					st.quarCycles = 0
					l.readmitted++
					p.alert(Alert{Kind: KindReadmitted, Peer: st.id})
				}
				continue
			}
			if !st.quarantined { // a quarantined agent is already isolated; estimation covers it
				st.consecFails++
				if int(st.consecFails) >= l.cfg.QuarantineThreshold {
					st.quarantined = true
					st.quarCycles = 0
					st.consecFails = 0
					l.quarantinedNew++
					p.alert(Alert{Kind: KindQuarantined, Peer: st.id, Count: l.cfg.QuarantineThreshold})
				}
			}
			if st.quarantined && l.restart != nil && st.quarCycles%restartEvery == 0 {
				l.restarts = append(l.restarts, st)
			}
		}
	}

	// Failure estimation (paper §III-C1): failed pulls are estimated from
	// same-service responders; servers never seen get their last known
	// value (or zero). Quarantined agents are expected absences — their
	// draw is estimated like any failure, but they don't count toward the
	// invalid-aggregation fraction: the breaker already bounded the
	// unknown, and flooding every cycle with invalid alerts for a known
	// outage would hide real incidents (no invalid-cycle flood).
	svcs := l.services
	for i := range svcs {
		s := &svcs[i]
		s.sum, s.cnt, s.last, s.held = 0, 0, 0, 0
	}
	failures := 0
	for _, st := range l.list {
		switch {
		case st.ok:
			svcs[st.svc].sum += st.reading
			svcs[st.svc].cnt++
		case st.quarantined:
			l.quarantinedNow++
		default:
			failures++
		}
	}
	total := float64(l.cfg.NonServerDraw)
	for _, st := range l.list {
		s := &svcs[st.svc]
		if !st.ok {
			if s.cnt > 0 && st.service != "" {
				st.reading = s.sum / float64(s.cnt)
			} else if st.everSeen {
				st.reading = st.lastPower
			} else {
				st.reading = 0
			}
		}
		total += st.reading
		s.last += power.Watts(st.reading)
		s.held++
	}

	p.rec.Failures = failures
	failFrac := 0.0
	if len(l.list) > 0 {
		failFrac = float64(failures) / float64(len(l.list))
	}
	if failFrac > maxFailureFrac {
		p.alert(Alert{Kind: KindPullsFailed, Count: failures, Of: len(l.list)})
		return 0, false
	}
	return power.Watts(total), true
}

// decide runs three-band (or PID) control and plans the caps or the uncap.
func (l *Leaf) decide(now time.Duration, p *cyclePlan) {
	l.validate(p)
	var target power.Watts
	if l.pid != nil {
		p.rec.Action, target = l.pid.step(now, p.rec.Agg, p.rec.EffLimit, p.capCount > 0)
	} else {
		bands := l.effectiveBands()
		p.rec.Action = bands.Decide(p.rec.Agg, p.capCount > 0)
		target = bands.CapTarget
	}
	switch p.rec.Action {
	case ActionCap:
		p.rec.Target = target
		l.planCap(p)
	case ActionUncap:
		if l.dryRun {
			p.alert(Alert{Kind: KindDryRunUncap, Count: p.capCount})
		} else {
			p.sendUncaps = true
		}
	}
}

// validate cross-checks the aggregation against the breaker's own coarse
// reading when one is available. Observe-phase: the validator is a pure
// read and the warning is deferred to the act phase.
func (l *Leaf) validate(p *cyclePlan) {
	if l.cfg.Validator == nil {
		return
	}
	reading, ok := l.cfg.Validator()
	if !ok || reading <= 0 {
		return
	}
	diff := float64(p.rec.Agg-reading) / float64(reading)
	if diff < 0 {
		diff = -diff
	}
	if diff > validationTolerance {
		p.alert(Alert{Kind: KindBreakerMismatch, Watts: p.rec.Agg, Ref: reading})
	}
}

// planCap computes the capping plan (observe-phase: pure with respect to
// shared state) and records the caps to send in the act phase.
func (l *Leaf) planCap(p *cyclePlan) {
	totalCut := p.rec.Agg - p.rec.Target
	if totalCut <= 0 {
		return
	}
	l.planner.start(len(l.list))
	for i, st := range l.list {
		l.planner.add(i, l.services[st.svc].priority, power.Watts(st.reading))
	}
	achieved, shortfall, caps := l.planner.plan(totalCut, l.cfg.Priorities, func(i int) string { return l.list[i].id })
	p.rec.ServersPlanned, p.rec.Achieved, p.rec.Shortfall = len(caps), achieved, shortfall
	p.planComputed = true
	if shortfall > 0 {
		p.alert(Alert{Kind: KindShortfall, Watts: shortfall})
	}
	if l.dryRun {
		p.alert(Alert{Kind: KindDryRunCap, Count: len(caps), Watts: achieved})
		return
	}
	l.caps = caps
	p.sendCaps = true
}

// act records the cycle's circuit-breaker outcome and, on a live
// controller, requests the due agent restarts and sends caps or uncaps.
// Cap leases need nothing here: the pulls renew them.
//
//dynamo:serial
func (l *Leaf) act(now time.Duration, p *cyclePlan, live bool) {
	if l.tel != nil && (l.quarantinedNew > 0 || l.readmitted > 0 || l.quarantinedNow > 0) {
		l.tel.quarantine(l.quarantinedNew, l.readmitted, l.quarantinedNow)
	}
	if !live {
		return
	}
	for i, st := range l.restarts {
		if i == maxRestartsPerCycle {
			break
		}
		l.raise(now, Alert{Kind: KindRestarting, Peer: st.id})
		l.restart(st.id)
	}
	if p.sendCaps {
		l.sendCaps()
	}
	if p.sendUncaps {
		l.sendUncaps()
	}
}

// sendCaps issues the planned cap commands. Quarantined agents are
// skipped: a command to an unreachable agent would only burn budget, and
// estimation already prices their draw in.
func (l *Leaf) sendCaps() {
	for _, m := range l.caps {
		st := l.list[m.i]
		if st.quarantined {
			continue
		}
		l.send(&st.pull, opSetCap, m.power-m.cut)
	}
}

// sendUncaps issues the uncap commands. Quarantined agents are skipped:
// their caps release through lease expiry, and the capped view corrects
// itself on the next successful pull.
func (l *Leaf) sendUncaps() {
	for _, st := range l.list {
		if st.capped && !st.quarantined {
			l.send(&st.pull, opClearCap, 0)
		}
	}
}
