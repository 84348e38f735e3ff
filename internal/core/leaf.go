package core

import (
	"fmt"
	"time"

	"dynamo/internal/agent"
	"dynamo/internal/metrics"
	"dynamo/internal/power"
	"dynamo/internal/rpc"
	"dynamo/internal/simclock"
	"dynamo/internal/statestore"
	"dynamo/internal/telemetry"
	"dynamo/internal/wire"
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
	// MaxFailureFrac is the fraction of failed pulls beyond which the
	// aggregation is declared invalid and no action is taken (paper: 20%).
	MaxFailureFrac float64
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
	// ValidationTolerance is the relative disagreement with the breaker
	// reading above which a warning is raised. Default 0.10.
	ValidationTolerance float64
	// UsePID selects the PID capping algorithm instead of the default
	// three-band control (the paper's future-work "more complex power
	// capping algorithms").
	UsePID bool
	// PID parameterizes the PID algorithm when UsePID is set.
	PID PIDConfig
	// Alerts receives operator alerts.
	Alerts AlertFunc
	// Telemetry, when set, receives operational metrics and decision trace
	// events. nil (the default) disables telemetry entirely: the control
	// cycle performs no telemetry work, keeping the simulation path
	// byte-identical and allocation-free.
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
	// Retry bounds per-call RPC retries toward agents (pulls, caps,
	// uncaps, lease renewals). Zero disables retries.
	Retry RetryConfig
	// QuarantineThreshold is the per-agent circuit breaker: after this
	// many consecutive failed pulls the agent is quarantined — excluded
	// from pulls and actuation, covered by failure estimation — until a
	// half-open probe succeeds. 0 disables quarantining.
	QuarantineThreshold int
	// QuarantineProbeEvery is the cadence, in cycles, of half-open probe
	// pulls to quarantined agents. Default 2.
	QuarantineProbeEvery int
	// CapLeaseTTL, when positive, stamps every SetCap with a lease of
	// this TTL and renews the lease of every capped agent each act phase,
	// so caps self-release on agents this controller can no longer reach
	// (and on all agents if this controller dies).
	CapLeaseTTL time.Duration
}

func (c *LeafConfig) fillDefaults() {
	if c.PollInterval <= 0 {
		c.PollInterval = 3 * time.Second
	}
	if c.PullTimeout <= 0 {
		c.PullTimeout = c.PollInterval * 2 / 3
	}
	if c.MaxFailureFrac <= 0 {
		c.MaxFailureFrac = 0.20
	}
	if c.Bands == (BandConfig{}) {
		c.Bands = DefaultBandConfig()
	}
	if c.Priorities.BucketSize == 0 && c.Priorities.Priority == nil {
		c.Priorities = DefaultPriorityConfig()
	}
	if c.ValidationTolerance <= 0 {
		// The breaker meter refreshes on the order of a minute
		// (paper §III-C1), so the cross-check must tolerate normal power
		// movement over that staleness window.
		c.ValidationTolerance = 0.20
	}
	if c.QuarantineThreshold > 0 && c.QuarantineProbeEvery <= 0 {
		c.QuarantineProbeEvery = 2
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
	id         string
	client     rpc.Client
	service    string
	generation string

	lastPower float64
	everSeen  bool
	capSent   power.Watts
	capped    bool

	// Circuit-breaker state (quarantine). consecFails counts consecutive
	// failed pulls; at the configured threshold the agent is quarantined:
	// excluded from pulls (except periodic half-open probes) and from
	// actuation, with estimation covering its draw. A successful pull
	// re-admits it.
	consecFails int
	quarantined bool
	quarCycles  int
	probing     bool // this cycle issues a half-open probe

	// cycle-local state. raw holds a copy of the undecoded pull response
	// (the transport's buffer is only valid inside the completion
	// callback) in storage reused from cycle to cycle; decoding happens in
	// the observe phase so the callback does no per-agent work beyond
	// copying bytes.
	rawValid  bool
	raw       []byte
	ok        bool
	estimated bool
	reading   float64
}

// Leaf is a leaf power controller. It is confined to its event loop: all
// methods (including the RPC handler) must run on loop callbacks.
type Leaf struct {
	cfg  LeafConfig
	loop simclock.Loop

	agents map[string]*agentState // by server ID
	list   []*agentState          // the same agents in configuration order; every per-cycle loop walks this

	// Reused across pulls by the observe phase: one decoder and one
	// response message per controller, not per reading.
	dec wire.Decoder
	msg agent.ReadPowerResponse

	ticker   *simclock.Ticker
	cycleSeq uint64
	inflight int
	cycles   uint64

	// gen counts controller lifetimes: Stop bumps it, and every RPC
	// completion captured under an older generation becomes a no-op, so a
	// stopped (crashed/fenced) controller's in-flight cycle cannot
	// actuate caps or mutate agent state afterwards. cycleGen records the
	// generation the open cycle was started under.
	gen      uint64
	cycleGen uint64

	// retryPol is the precomputed rpc retry policy (zero when retries are
	// off); retries counts re-attempts across all downstream calls.
	retryPol rpc.RetryPolicy
	retries  uint64

	contract    power.Watts // 0 = none
	lastAgg     power.Watts
	lastValid   bool
	lastService map[string]power.Watts

	history       *metrics.Series
	cappedHistory *metrics.Series
	journal       *Journal

	pid *pidState

	capEvents   uint64
	uncapEvents uint64

	// ckpt, when set, checkpoints this controller's recoverable state into
	// the replicated state store at the end of every act phase.
	ckpt *statestore.Writer

	// phased execution. cycleOpen is true from pollCycle until the act
	// phase completes; reconfiguration requested in that window is
	// deferred to the cycle boundary so it cannot race an observe phase
	// running on a cohort worker.
	sched             *CohortScheduler
	schedOrder        int
	cycleOpen         bool
	plan              leafPlan
	pendingBands      *BandConfig
	pendingPoll       time.Duration
	deferredReconfigs uint64

	// telemetry (nil when disabled)
	tel          *ctrlInstr
	cycleStartAt time.Duration
	lastAction   Action
}

// pendingAlert is an alert composed during observe+decide (which may run
// off-loop) and emitted during the serial act phase.
type pendingAlert struct {
	level AlertLevel
	msg   string
}

// leafPlan is the complete outcome of one observe+decide phase. The act
// phase applies it verbatim: journal write, alert emission, telemetry,
// and RPC actuation. Everything the act phase needs is captured here so
// the two phases share no implicit state.
type leafPlan struct {
	rec          DecisionRecord
	invalid      bool
	failures     int
	agg          power.Watts
	effLimit     power.Watts
	action       Action
	prevAction   Action
	capCount     int
	planComputed bool
	caps         []PlannedCap
	planned      int
	achieved     power.Watts
	shortfall    power.Watts
	sendCaps     bool
	sendUncaps   bool
	alerts       []pendingAlert

	// circuit-breaker outcomes of this cycle
	quarantined    int // agents in quarantine after this cycle
	quarantinedNew int // breakers tripped this cycle
	readmitted     int // agents re-admitted this cycle
}

func (p *leafPlan) alert(level AlertLevel, format string, args ...interface{}) {
	p.alerts = append(p.alerts, pendingAlert{level: level, msg: fmt.Sprintf(format, args...)})
}

// NewLeaf creates a leaf controller over the given agents.
func NewLeaf(loop simclock.Loop, cfg LeafConfig, agents []AgentRef) *Leaf {
	cfg.fillDefaults()
	l := &Leaf{
		cfg:           cfg,
		loop:          loop,
		agents:        make(map[string]*agentState, len(agents)),
		history:       metrics.NewSeries(1024),
		cappedHistory: metrics.NewSeries(1024),
		journal:       NewJournal(512),
		lastService:   map[string]power.Watts{},
	}
	l.tel = newCtrlInstr(cfg.Telemetry, cfg.DeviceID, "leaf")
	l.cfg.Alerts = l.tel.wrapAlerts(l.cfg.Alerts)
	l.ckpt = cfg.Checkpoint
	l.sched = cfg.Scheduler
	if l.sched != nil {
		l.schedOrder = l.sched.register()
	}
	for _, a := range agents {
		st := &agentState{
			id: a.ServerID, client: a.Client,
			service: a.Service, generation: a.Generation,
		}
		l.agents[a.ServerID] = st
		l.list = append(l.list, st)
	}
	if cfg.UsePID {
		l.pid = newPIDState(cfg.PID)
	}
	if l.cfg.Retry.Enabled() {
		l.retryPol = l.cfg.Retry.policy(l.cfg.PollInterval)
	}
	l.ticker = simclock.NewTicker(loop, cfg.PollInterval, l.pollCycle)
	return l
}

// call issues one downstream RPC under the configured retry policy; with
// retries disabled it is a plain single-attempt Call. Always invoked on
// the loop goroutine (poll broadcast or act phase).
func (l *Leaf) call(st *agentState, method string, req wire.Message, done func([]byte, error)) {
	if !l.retryPol.Enabled() {
		st.client.Call(method, req, l.cfg.PullTimeout, done)
		return
	}
	pol := l.retryPol
	pol.OnRetry = func(attempt int, err error) {
		l.retries++
		if l.tel != nil {
			l.tel.rpcRetry(l.cycles, l.loop.Now(), st.id, method, attempt, err)
		}
	}
	rpc.CallRetry(l.loop, st.client, method, st.id, req, l.cfg.PullTimeout, pol, done)
}

// Retries returns how many downstream RPC re-attempts this controller
// has issued.
func (l *Leaf) Retries() uint64 { return l.retries }

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

// DeviceID returns the protected device's identifier.
func (l *Leaf) DeviceID() string { return l.cfg.DeviceID }

// Start begins the pull cycle.
func (l *Leaf) Start() { l.ticker.Start() }

// Stop halts the pull cycle (a crashed controller, for failover tests).
// Bumping the generation invalidates this cycle's in-flight RPC
// completions: a SetCap ack or retry landing after Stop must not mutate
// controller state or actuate anything — the act phase of an already
// collected cycle still journals and checkpoints (bookkeeping), but
// sends nothing.
func (l *Leaf) Stop() {
	l.gen++
	l.ticker.Stop()
}

// Running reports whether the controller is polling.
func (l *Leaf) Running() bool { return l.ticker.Active() }

// Cycles returns the number of completed aggregation cycles.
func (l *Leaf) Cycles() uint64 { return l.cycles }

// LastAggregate returns the most recent aggregated power and validity.
func (l *Leaf) LastAggregate() (power.Watts, bool) { return l.lastAgg, l.lastValid }

// History returns the aggregate power time series (one point per cycle).
func (l *Leaf) History() *metrics.Series { return l.history }

// CappedHistory returns the capped-server-count time series.
func (l *Leaf) CappedHistory() *metrics.Series { return l.cappedHistory }

// CappedCount returns how many servers currently hold a cap we sent.
func (l *Leaf) CappedCount() int {
	n := 0
	for _, a := range l.list {
		if a.capped {
			n++
		}
	}
	return n
}

// CapEvents returns how many capping actions this controller has taken.
func (l *Leaf) CapEvents() uint64 { return l.capEvents }

// UncapEvents returns how many uncap actions this controller has taken.
func (l *Leaf) UncapEvents() uint64 { return l.uncapEvents }

// ServiceBreakdown returns the last cycle's per-service power.
func (l *Leaf) ServiceBreakdown() map[string]power.Watts {
	out := make(map[string]power.Watts, len(l.lastService))
	for k, v := range l.lastService {
		out[k] = v
	}
	return out
}

// EffectiveLimit is min(physical, contractual) (paper §III-D).
func (l *Leaf) EffectiveLimit() power.Watts {
	if l.contract > 0 && l.contract < l.cfg.Limit {
		return l.contract
	}
	return l.cfg.Limit
}

// Contract returns the current contractual limit (0 when none).
func (l *Leaf) Contract() power.Watts { return l.contract }

// effectiveBands returns the decision bands. Against the physical breaker
// limit the configured fractions apply. Against a contractual limit the
// contract itself is the threshold and the target sits just below it: the
// parent that issued the contract already built in its own safety margin,
// and re-applying the 5 % target at every level would compound
// (0.95^depth), dropping settled power below the top-level uncap threshold
// and causing hierarchy-wide cap/uncap oscillation.
func (l *Leaf) effectiveBands() Bands {
	if l.contract > 0 && l.contract < l.cfg.Limit {
		return contractBands(l.contract, l.cfg.Bands)
	}
	return l.cfg.Bands.BandsFor(l.cfg.Limit)
}

// contractBands builds enforcement bands for a contractual limit.
func contractBands(contract power.Watts, cfg BandConfig) Bands {
	return Bands{
		CapThreshold:   contract,
		CapTarget:      power.Watts(float64(contract) * 0.99),
		UncapThreshold: power.Watts(float64(contract) * cfg.UncapThresholdFrac),
	}
}

// SetPollInterval changes the pull cycle (ablation studies compare the
// paper's 3 s cycle against slower sampling). If a cycle is currently
// collecting or deciding, the change is deferred to the cycle boundary so
// it cannot race an observe phase running on a cohort worker.
func (l *Leaf) SetPollInterval(d time.Duration) {
	if d <= 0 {
		return
	}
	if l.cycleOpen {
		l.pendingPoll = d
		l.deferredReconfigs++
		return
	}
	l.applyPollInterval(d)
}

func (l *Leaf) applyPollInterval(d time.Duration) {
	l.cfg.PollInterval = d
	l.cfg.PullTimeout = d * 2 / 3
	l.ticker.SetPeriod(d)
}

// SetBands replaces the band configuration (used by experiments that
// manually lower the capping threshold, as in Fig 15). Mid-cycle calls
// are validated immediately but applied at the next cycle boundary.
func (l *Leaf) SetBands(b BandConfig) error {
	if err := b.Validate(); err != nil {
		return err
	}
	if l.cycleOpen {
		bc := b
		l.pendingBands = &bc
		l.deferredReconfigs++
		return nil
	}
	l.cfg.Bands = b
	return nil
}

// DeferredReconfigs returns how many SetBands/SetPollInterval calls were
// deferred to a cycle boundary because a cycle was in flight.
func (l *Leaf) DeferredReconfigs() uint64 { return l.deferredReconfigs }

// applyPendingReconfigs applies deferred reconfiguration at the cycle
// boundary (end of the act phase, on the loop goroutine).
func (l *Leaf) applyPendingReconfigs() {
	if l.pendingBands != nil {
		l.cfg.Bands = *l.pendingBands
		l.pendingBands = nil
	}
	if l.pendingPoll > 0 {
		l.applyPollInterval(l.pendingPoll)
		l.pendingPoll = 0
	}
}

// pollCycle broadcasts power pulls to every agent (paper: "periodically
// broadcasts power pull requests over Thrift to all servers").
func (l *Leaf) pollCycle() {
	if l.inflight > 0 || l.cycleOpen {
		// Previous cycle still collecting or deciding (should not happen:
		// timeout < interval), skip to avoid overlapping aggregations.
		return
	}
	l.cycleSeq++
	seq := l.cycleSeq
	l.cycleOpen = true
	l.cycleGen = l.gen
	if l.tel != nil {
		l.cycleStartAt = l.loop.Now()
		l.tel.cycleStart(l.cycles+1, l.cycleStartAt)
	}
	// Quarantined agents are skipped (estimation covers them) except on
	// their probe cycles, where a single half-open pull tests whether
	// they can be re-admitted.
	l.inflight = 0
	for _, st := range l.list {
		st.rawValid = false
		st.ok = false
		st.estimated = false
		st.reading = 0
		st.probing = false
		if st.quarantined {
			st.quarCycles++
			if st.quarCycles%l.cfg.QuarantineProbeEvery != 0 {
				continue
			}
			st.probing = true
		}
		l.inflight++
	}
	if l.inflight == 0 {
		l.complete()
		return
	}
	for _, st := range l.list {
		if st.quarantined && !st.probing {
			continue
		}
		if st.probing {
			// Half-open probe: one unretried attempt — a still-dead agent
			// must not consume the retry budget.
			st.client.Call(agent.MethodReadPower, rpc.Empty, l.cfg.PullTimeout,
				func(resp []byte, err error) { l.onPull(seq, st, resp, err) })
			continue
		}
		l.call(st, agent.MethodReadPower, rpc.Empty,
			func(resp []byte, err error) { l.onPull(seq, st, resp, err) })
	}
}

// onPull records one pull completion. It runs on the loop goroutine and
// only stores the raw response; decoding is deferred to the observe
// phase, which may run on a cohort worker.
func (l *Leaf) onPull(seq uint64, st *agentState, resp []byte, err error) {
	if seq != l.cycleSeq {
		return // stale response from a superseded cycle
	}
	if err != nil && l.tel != nil {
		l.tel.rpcFailure(l.cycles+1, l.loop.Now(), st.id, "power pull", err)
	}
	if err == nil {
		st.rawValid = true
		st.raw = append(st.raw[:0], resp...)
	}
	l.inflight--
	if l.inflight == 0 {
		l.complete()
	}
}

// complete hands the collected cycle to its phases: via the cohort
// scheduler when one is attached, else inline at the completion instant.
func (l *Leaf) complete() {
	if l.sched != nil {
		l.sched.submit(l, l.schedOrder)
		return
	}
	now := l.loop.Now()
	l.runObserveDecide(now)
	l.runAct(now)
}

// runObserveDecide is the observe+decide phase: decode raw responses, run
// failure estimation and aggregation, evaluate the three-band (or PID)
// decision, and compute the full actuation plan into l.plan. It reads and
// writes only this controller's own state, so the cohort scheduler may
// run it on a worker goroutine concurrently with other controllers'
// observe phases. No journal writes, alert emission, telemetry, or RPC
// happens here — those are act-phase effects.
func (l *Leaf) runObserveDecide(now time.Duration) {
	if l.tel != nil {
		//lint:allow wallclock — wall-clock phase-latency for operator histograms; guarded by a tel nil-check and never feeds control decisions
		defer l.tel.observeDone(time.Now())
	}
	l.cycles++
	p := &l.plan
	*p = leafPlan{prevAction: l.lastAction, caps: p.caps[:0], alerts: p.alerts[:0]}

	// Decode this cycle's raw pull responses.
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
			st.service = r.Service
			st.generation = r.Generation
			st.capped = r.Capped
			if r.Capped {
				st.capSent = power.Watts(r.CapWatts)
			}
		}
	}

	// Circuit-breaker accounting: consecutive failed pulls trip a
	// per-agent quarantine; any successful pull (including a half-open
	// probe) re-admits the agent.
	if l.cfg.QuarantineThreshold > 0 {
		for _, st := range l.list {
			if st.ok {
				st.consecFails = 0
				if st.quarantined {
					st.quarantined = false
					st.quarCycles = 0
					p.readmitted++
					p.alert(AlertInfo, "agent %s re-admitted after successful probe", st.id)
				}
				continue
			}
			if st.quarantined {
				continue // already isolated; estimation covers it
			}
			st.consecFails++
			if st.consecFails >= l.cfg.QuarantineThreshold {
				st.quarantined = true
				st.quarCycles = 0
				st.consecFails = 0
				p.quarantinedNew++
				p.alert(AlertWarning,
					"agent %s quarantined after %d consecutive failed pulls; estimating until a probe succeeds",
					st.id, l.cfg.QuarantineThreshold)
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
	var serviceSum = map[string]float64{}
	var serviceCnt = map[string]int{}
	failures := 0
	quarantined := 0
	for _, st := range l.list {
		switch {
		case st.ok:
			serviceSum[st.service] += st.reading
			serviceCnt[st.service]++
		case st.quarantined:
			quarantined++
		default:
			failures++
		}
	}
	p.quarantined = quarantined
	total := float64(l.cfg.NonServerDraw)
	for k := range l.lastService {
		delete(l.lastService, k)
	}
	for _, st := range l.list {
		if !st.ok {
			if cnt := serviceCnt[st.service]; cnt > 0 && st.service != "" {
				st.reading = serviceSum[st.service] / float64(cnt)
			} else if st.everSeen {
				st.reading = st.lastPower
			} else {
				st.reading = 0
			}
			st.estimated = true
		}
		total += st.reading
		l.lastService[st.service] += power.Watts(st.reading)
	}

	p.failures = failures
	failFrac := 0.0
	if len(l.list) > 0 {
		failFrac = float64(failures) / float64(len(l.list))
	}
	if failFrac > l.cfg.MaxFailureFrac {
		// Too many failures: the aggregation is invalid; take no action
		// and alert for human intervention (paper §III-C1, §III-E).
		l.lastValid = false
		p.invalid = true
		p.alert(AlertCritical,
			"power aggregation invalid: %d/%d pulls failed (%.0f%% > %.0f%%)",
			failures, len(l.list), failFrac*100, l.cfg.MaxFailureFrac*100)
		p.rec = DecisionRecord{
			Cycle: l.cycles, Time: now, Valid: false, Failures: failures,
		}
		return
	}

	agg := power.Watts(total)
	l.lastAgg = agg
	l.lastValid = true
	p.agg = agg
	p.capCount = l.CappedCount()
	p.effLimit = l.EffectiveLimit()
	l.validate(p, agg)

	var action Action
	var target power.Watts
	if l.pid != nil {
		action, target = l.pid.step(now, agg, p.effLimit, p.capCount > 0)
	} else {
		bands := l.effectiveBands()
		action = bands.Decide(agg, p.capCount > 0)
		target = bands.CapTarget
	}
	p.action = action
	l.lastAction = action
	p.rec = DecisionRecord{
		Cycle: l.cycles, Time: now, Agg: agg, Valid: true,
		Failures: failures, EffLimit: p.effLimit,
		Action: action, DryRun: l.cfg.DryRun,
	}
	switch action {
	case ActionCap:
		p.rec.Target = target
		l.planCap(p, agg, target)
		p.rec.ServersPlanned, p.rec.Achieved, p.rec.Shortfall = p.planned, p.achieved, p.shortfall
	case ActionUncap:
		l.planUncap(p)
	}
}

// runAct is the act phase: apply the plan computed by runObserveDecide.
// It always runs on the loop goroutine — journal and history writes,
// alert emission, telemetry, and RPC sends all happen here, serially and
// in fixed device order across the cohort.
//
//dynamo:serial
func (l *Leaf) runAct(now time.Duration) {
	p := &l.plan
	defer func() {
		l.cycleOpen = false
		l.applyPendingReconfigs()
	}()
	// A controller stopped mid-cycle (crash, fencing) still finishes the
	// cycle's bookkeeping, but must not actuate: no caps, uncaps, or
	// lease renewals leave a dead controller.
	stopped := l.cycleGen != l.gen
	if l.tel != nil && (p.quarantinedNew > 0 || p.readmitted > 0 || p.quarantined > 0) {
		l.tel.quarantine(p.quarantinedNew, p.readmitted, p.quarantined)
	}

	if p.invalid {
		if l.tel != nil {
			l.tel.invalidCycle(l.cycles, l.cycleStartAt, now, p.failures, len(l.list))
		}
		l.emitAlerts(now, p)
		if !stopped {
			l.renewLeases(now, nil)
		}
		l.journal.Add(p.rec)
		l.checkpoint(now, p.rec)
		return
	}

	l.history.Add(now, float64(p.agg))
	l.cappedHistory.Add(now, float64(p.capCount))
	if l.tel != nil && p.action != p.prevAction {
		l.tel.transition(l.cycles, now, p.prevAction, p.action)
	}
	if l.tel != nil && p.planComputed {
		l.tel.capPlan(l.cycles, now, p.planned, p.achieved, p.shortfall, l.cfg.DryRun)
	}
	l.emitAlerts(now, p)
	if !stopped {
		if p.sendCaps {
			l.capEvents++
			l.sendCaps(p.caps)
		}
		if p.sendUncaps {
			l.uncapEvents++
			l.sendUncaps()
		}
		if !p.sendUncaps {
			l.renewLeases(now, p.caps)
		}
	}
	l.journal.Add(p.rec)
	l.checkpoint(now, p.rec)
	if l.tel != nil {
		l.tel.cycleEnd(l.cycles, l.cycleStartAt, now, p.agg, p.effLimit, p.capCount, p.action)
	}
}

// renewLeases refreshes the cap lease of every capped, reachable agent
// that was not just (re-)capped this cycle — a SetCap carries its own
// lease. Act-phase: RPC sends on the loop goroutine. Runs in invalid
// cycles too: an aggregation the controller cannot trust is no reason to
// let still-valid caps lapse.
func (l *Leaf) renewLeases(now time.Duration, justCapped []PlannedCap) {
	if l.cfg.CapLeaseTTL <= 0 {
		return
	}
	var skip map[string]bool
	if len(justCapped) > 0 {
		skip = make(map[string]bool, len(justCapped))
		for _, pc := range justCapped {
			skip[pc.ID] = true
		}
	}
	gen := l.gen
	req := &agent.RenewLeaseRequest{LeaseNanos: uint64(l.cfg.CapLeaseTTL)}
	for _, st := range l.list {
		if !st.capped || st.quarantined || skip[st.id] {
			continue
		}
		l.call(st, agent.MethodRenewLease, req, func(resp []byte, err error) {
			if l.gen != gen {
				return
			}
			var ack agent.CapResponse
			if derr := rpc.Decode(resp, err, &ack); derr != nil {
				if l.tel != nil {
					l.tel.leaseRenewFailed(l.cycles, l.loop.Now(), st.id, derr)
				}
				return
			}
			if !ack.OK {
				// The agent no longer holds the cap (its lease expired
				// while we couldn't reach it): adopt its view so the next
				// cycle re-plans from truth.
				st.capped = false
				st.capSent = 0
				if l.tel != nil {
					l.tel.leaseRenewFailed(l.cycles, l.loop.Now(), st.id, nil)
				}
				return
			}
			if l.tel != nil {
				l.tel.leaseRenewed()
			}
		})
	}
}

// checkpoint writes this cycle's state into the replicated store
// (act-phase effect, always after the journal write of the same cycle —
// see the ordering rule in checkpoint.go). A fenced append means a backup
// has adopted this device: this instance is a zombie and stops itself.
func (l *Leaf) checkpoint(now time.Duration, rec DecisionRecord) {
	if l.ckpt == nil {
		return
	}
	fenced, err := writeCheckpoint(l.ckpt, l.journal, rec, l.cycles, l.lastAction, l.contract, l.pid)
	if err == nil {
		return
	}
	if fenced {
		l.cfg.Alerts.emit(now, AlertCritical, l.cfg.DeviceID,
			"checkpoint fenced (stream epoch %d superseded by adoption); stopping zombie controller",
			l.ckpt.Epoch())
		l.Stop()
		return
	}
	l.cfg.Alerts.emit(now, AlertWarning, l.cfg.DeviceID, "checkpoint append failed: %v", err)
}

func (l *Leaf) emitAlerts(now time.Duration, p *leafPlan) {
	for _, a := range p.alerts {
		l.cfg.Alerts.emit(now, a.level, l.cfg.DeviceID, "%s", a.msg)
	}
}

// Journal returns the controller's decision log (oldest-first ring).
func (l *Leaf) Journal() *Journal { return l.journal }

// AdoptJournal seeds this controller with a predecessor's decision
// records and cycle counter (failover handoff). Call before Start.
func (l *Leaf) AdoptJournal(recs []DecisionRecord, cycles uint64) {
	l.journal.Absorb(recs)
	if cycles > l.cycles {
		l.cycles = cycles
	}
}

// AdoptInternals restores band/PID internals, the last action, and the
// contractual limit from a predecessor's final checkpoint. Call with
// AdoptJournal, before Start.
func (l *Leaf) AdoptInternals(ck ControllerCheckpoint) {
	l.lastAction = ck.LastAction
	l.contract = ck.Contract
	if l.pid != nil {
		l.pid.integral = ck.PIDIntegral
		l.pid.last = ck.PIDLast
		l.pid.engaged = ck.PIDEngaged
		l.pid.started = ck.PIDStarted
	}
}

// CheckpointWriter returns the attached state-store writer (nil when
// checkpointing is disabled). The failover path uses it to continue the
// adopted stream at its granted epoch.
func (l *Leaf) CheckpointWriter() *statestore.Writer { return l.ckpt }

// validate cross-checks the aggregation against the breaker's own coarse
// reading when one is available. Observe-phase: the validator is a pure
// read and the warning is deferred to the act phase.
func (l *Leaf) validate(p *leafPlan, agg power.Watts) {
	if l.cfg.Validator == nil {
		return
	}
	reading, ok := l.cfg.Validator()
	if !ok || reading <= 0 {
		return
	}
	diff := float64(agg-reading) / float64(reading)
	if diff < 0 {
		diff = -diff
	}
	if diff > l.cfg.ValidationTolerance {
		p.alert(AlertWarning,
			"aggregation %v disagrees with breaker reading %v by %.1f%%",
			agg, reading, diff*100)
	}
}

// planCap computes the capping plan (observe-phase: pure with respect to
// shared state) and records the caps to send in the act phase.
func (l *Leaf) planCap(p *leafPlan, agg, target power.Watts) {
	totalCut := agg - target
	if totalCut <= 0 {
		return
	}
	snapshot := make([]ServerState, 0, len(l.list))
	for _, st := range l.list {
		snapshot = append(snapshot, ServerState{
			ID:        st.id,
			Service:   st.service,
			Power:     power.Watts(st.reading),
			Estimated: st.estimated,
		})
	}
	plan := ComputePlan(snapshot, totalCut, l.cfg.Priorities)
	p.planned, p.achieved, p.shortfall = len(plan.Caps), plan.Achieved, plan.Shortfall
	p.planComputed = true
	if plan.Shortfall > 0 {
		p.alert(AlertCritical, "capping plan short by %v (SLA floors reached)", plan.Shortfall)
	}
	if l.cfg.DryRun {
		p.alert(AlertInfo, "dry-run: would cap %d servers for %v total cut",
			len(plan.Caps), plan.Achieved)
		return
	}
	p.caps = append(p.caps, plan.Caps...)
	p.sendCaps = true
}

// planUncap records the uncap decision for the act phase.
func (l *Leaf) planUncap(p *leafPlan) {
	if l.cfg.DryRun {
		p.alert(AlertInfo, "dry-run: would uncap %d servers", p.capCount)
		return
	}
	p.sendUncaps = true
}

// sendCaps issues the cap commands (act-phase: RPC sends on the loop).
// Completions are gated on the controller generation so a cap ack (or a
// late retry) landing after Stop cannot mutate state. Quarantined agents
// are skipped: a command to an unreachable agent would only burn budget,
// and estimation already prices their draw in.
func (l *Leaf) sendCaps(caps []PlannedCap) {
	gen := l.gen
	for _, pc := range caps {
		st := l.agents[pc.ID]
		if st.quarantined {
			continue
		}
		req := &agent.SetCapRequest{LimitWatts: float64(pc.Cap), LeaseNanos: uint64(l.cfg.CapLeaseTTL)}
		capVal := pc.Cap
		l.call(st, agent.MethodSetCap, req, func(resp []byte, err error) {
			if l.gen != gen {
				return
			}
			var ack agent.CapResponse
			if derr := rpc.Decode(resp, err, &ack); derr != nil || !ack.OK {
				if l.tel != nil {
					l.tel.rpcFailure(l.cycles, l.loop.Now(), st.id, "cap command", derr)
				}
				l.cfg.Alerts.emit(l.loop.Now(), AlertWarning, l.cfg.DeviceID,
					"cap command to %s failed", st.id)
				return
			}
			st.capped = true
			st.capSent = capVal
		})
	}
}

// sendUncaps issues the uncap commands (act-phase). Quarantined agents
// are skipped: their caps release through lease expiry, and the capped
// view corrects itself on the next successful pull.
func (l *Leaf) sendUncaps() {
	gen := l.gen
	for _, st := range l.list {
		if !st.capped || st.quarantined {
			continue
		}
		l.call(st, agent.MethodClearCap, rpc.Empty, func(resp []byte, err error) {
			if l.gen != gen {
				return
			}
			var ack agent.CapResponse
			if derr := rpc.Decode(resp, err, &ack); derr != nil || !ack.OK {
				if l.tel != nil {
					l.tel.rpcFailure(l.cycles, l.loop.Now(), st.id, "uncap command", derr)
				}
				l.cfg.Alerts.emit(l.loop.Now(), AlertWarning, l.cfg.DeviceID,
					"uncap command to %s failed", st.id)
				return
			}
			st.capped = false
			st.capSent = 0
		})
	}
}

// Handler serves the controller-to-controller protocol for this device.
func (l *Leaf) Handler() rpc.Handler {
	return func(method string, body []byte) (wire.Message, error) {
		switch method {
		case MethodCtrlReadPower:
			return &CtrlReadPowerResponse{
				AggWatts:      float64(l.lastAgg),
				Valid:         l.lastValid,
				CappedServers: l.CappedCount(),
				QuotaWatts:    float64(l.cfg.Quota),
				LimitWatts:    float64(l.cfg.Limit),
				ContractWatts: float64(l.contract),
			}, nil
		case MethodCtrlSetContract:
			var req SetContractRequest
			if err := wire.Unmarshal(body, &req); err != nil {
				return nil, err
			}
			l.contract = power.Watts(req.LimitWatts)
			if l.tel != nil {
				l.tel.contractReceived(l.loop.Now(), l.contract)
			}
			return &AckResponse{OK: true}, nil
		case MethodCtrlClearContract:
			l.contract = 0
			if l.tel != nil {
				l.tel.contractReceived(l.loop.Now(), 0)
			}
			return &AckResponse{OK: true}, nil
		case MethodCtrlPing:
			return &CtrlPingResponse{Healthy: l.Running(), Cycles: l.cycles}, nil
		default:
			return nil, fmt.Errorf("leaf %s: unknown method %q", l.cfg.DeviceID, method)
		}
	}
}
