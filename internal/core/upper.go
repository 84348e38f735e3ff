package core

import (
	"fmt"
	"sort"
	"time"

	"dynamo/internal/metrics"
	"dynamo/internal/power"
	"dynamo/internal/rpc"
	"dynamo/internal/simclock"
	"dynamo/internal/statestore"
	"dynamo/internal/telemetry"
	"dynamo/internal/wire"
)

// UpperConfig configures an upper-level power controller (paper §III-D).
type UpperConfig struct {
	// DeviceID names the protected power device (an SB or MSB).
	DeviceID string
	// Limit is the device's physical breaker limit.
	Limit power.Watts
	// Quota is this device's own planned peak, used by ITS parent.
	Quota power.Watts
	// Bands is the three-band configuration.
	Bands BandConfig
	// PollInterval is the pull cycle over child controllers. The paper
	// uses 9 s — three leaf cycles — so child actions settle between
	// parent readings ("the pulling cycle for the upper-level controller
	// is longer than the settling time of the downstream leaf
	// controller").
	PollInterval time.Duration
	// PullTimeout bounds each child pull.
	PullTimeout time.Duration
	// MaxStaleFrac is the fraction of children allowed to be stale
	// (unreachable this cycle, reusing last-known values) before the
	// aggregation is declared invalid.
	MaxStaleFrac float64
	// OffenderBucket is the bucket width for distributing cuts among
	// offending children (the kW-scale analogue of the 20 W server
	// bucket).
	OffenderBucket power.Watts
	// DryRun computes decisions without sending contracts.
	DryRun bool
	// Alerts receives operator alerts.
	Alerts AlertFunc
	// Telemetry, when set, receives operational metrics and decision trace
	// events. nil (the default) disables telemetry entirely, as in
	// LeafConfig.
	Telemetry *telemetry.Sink
	// Scheduler, when set, runs the observe+decide phase on the shared
	// cohort worker pool (see LeafConfig.Scheduler).
	Scheduler *CohortScheduler
	// Checkpoint, when set, receives this controller's recoverable state
	// at the end of every act phase (see LeafConfig.Checkpoint).
	Checkpoint *statestore.Writer
	// Retry bounds per-call RPC retries toward child controllers (pulls
	// and contract sends). Zero disables retries.
	Retry RetryConfig
}

func (c *UpperConfig) fillDefaults() {
	if c.PollInterval <= 0 {
		c.PollInterval = 9 * time.Second
	}
	if c.PullTimeout <= 0 {
		c.PullTimeout = c.PollInterval / 2
	}
	if c.MaxStaleFrac <= 0 {
		c.MaxStaleFrac = 0.5
	}
	if c.Bands == (BandConfig{}) {
		c.Bands = DefaultBandConfig()
	}
	if c.OffenderBucket <= 0 {
		c.OffenderBucket = power.KW(5)
	}
}

// ChildRef identifies one downstream controller.
type ChildRef struct {
	ID     string
	Client rpc.Client
	// Quota is the child's planned peak power; children above quota are
	// the "offenders" capped first.
	Quota power.Watts
}

type childState struct {
	id     string
	client rpc.Client
	quota  power.Watts

	lastAgg    power.Watts
	everSeen   bool
	stale      bool
	staleFor   int
	contract   power.Watts
	contracted bool

	// cycle-local. raw holds a copy of the undecoded pull response;
	// decoding happens in the observe phase (see agentState.raw).
	rawValid bool
	raw      []byte
	ok       bool
	reading  power.Watts
}

// Upper is an upper-level power controller coordinating child controllers
// through contractual power limits. Like Leaf, it is loop-confined.
type Upper struct {
	cfg  UpperConfig
	loop simclock.Loop

	children map[string]*childState // by child ID
	list     []*childState          // the same children in configuration order; every per-cycle loop walks this

	// Reused across pulls by the observe phase (see the Leaf fields).
	dec wire.Decoder
	msg CtrlReadPowerResponse

	ticker   *simclock.Ticker
	cycleSeq uint64
	inflight int
	cycles   uint64

	contract  power.Watts // from our own parent
	lastAgg   power.Watts
	lastValid bool
	// recentAgg holds the last few valid aggregates; cut sizing uses
	// their mean so a single noisy 9 s sample cannot inflate the needed
	// cut beyond the offenders' over-quota headroom.
	recentAgg []power.Watts
	// holdoffUntil is the cycle count before which no further capping is
	// issued, giving the previous action time to settle downstream.
	holdoffUntil uint64

	history *metrics.Series
	journal *Journal

	capEvents   uint64
	uncapEvents uint64

	// ckpt, when set, checkpoints recoverable state every act phase.
	ckpt *statestore.Writer

	// phased execution (see the corresponding Leaf fields).
	sched      *CohortScheduler
	schedOrder int
	cycleOpen  bool
	plan       upperPlan

	// telemetry (nil when disabled)
	tel          *ctrlInstr
	cycleStartAt time.Duration
	lastAction   Action

	// retry policy (zero when retries are off) and re-attempt counter.
	retryPol rpc.RetryPolicy
	retries  uint64
}

// childCut is one contract to issue, in fixed child order. Emitting cuts
// as an ordered slice (rather than ranging over the cuts map as the
// pre-phase code did) makes the contract send order — and therefore the
// RPC event sequence — deterministic.
type childCut struct {
	id       string
	contract power.Watts
}

// upperPlan is the outcome of one upper observe+decide phase.
type upperPlan struct {
	rec             DecisionRecord
	invalid         bool
	stale           int
	agg             power.Watts
	effLimit        power.Watts
	action          Action
	prevAction      Action
	contractedCount int
	planComputed    bool
	planned         int
	achieved        power.Watts
	shortfall       power.Watts
	cuts            []childCut
	sendCuts        bool
	sendUncaps      bool
	alerts          []pendingAlert
}

func (p *upperPlan) alert(level AlertLevel, format string, args ...interface{}) {
	p.alerts = append(p.alerts, pendingAlert{level: level, msg: fmt.Sprintf(format, args...)})
}

// NewUpper creates an upper-level controller over child controllers.
func NewUpper(loop simclock.Loop, cfg UpperConfig, children []ChildRef) *Upper {
	cfg.fillDefaults()
	u := &Upper{
		cfg:      cfg,
		loop:     loop,
		children: make(map[string]*childState, len(children)),
		history:  metrics.NewSeries(1024),
		journal:  NewJournal(512),
	}
	u.tel = newCtrlInstr(cfg.Telemetry, cfg.DeviceID, "upper")
	u.cfg.Alerts = u.tel.wrapAlerts(u.cfg.Alerts)
	u.ckpt = cfg.Checkpoint
	u.sched = cfg.Scheduler
	if u.sched != nil {
		u.schedOrder = u.sched.register()
	}
	for _, c := range children {
		st := &childState{id: c.ID, client: c.Client, quota: c.Quota}
		u.children[c.ID] = st
		u.list = append(u.list, st)
	}
	if u.cfg.Retry.Enabled() {
		u.retryPol = u.cfg.Retry.policy(u.cfg.PollInterval)
	}
	u.ticker = simclock.NewTicker(loop, cfg.PollInterval, u.pollCycle)
	return u
}

// call issues one downstream RPC under the configured retry policy; with
// retries disabled it is a plain single-attempt Call (see Leaf.call).
func (u *Upper) call(st *childState, method string, req wire.Message, done func([]byte, error)) {
	if !u.retryPol.Enabled() {
		st.client.Call(method, req, u.cfg.PullTimeout, done)
		return
	}
	pol := u.retryPol
	pol.OnRetry = func(attempt int, err error) {
		u.retries++
		if u.tel != nil {
			u.tel.rpcRetry(u.cycles, u.loop.Now(), st.id, method, attempt, err)
		}
	}
	rpc.CallRetry(u.loop, st.client, method, st.id, req, u.cfg.PullTimeout, pol, done)
}

// Retries returns how many downstream RPC re-attempts this controller
// has issued.
func (u *Upper) Retries() uint64 { return u.retries }

// DeviceID returns the protected device's identifier.
func (u *Upper) DeviceID() string { return u.cfg.DeviceID }

// Start begins the pull cycle.
func (u *Upper) Start() { u.ticker.Start() }

// Stop halts the pull cycle.
func (u *Upper) Stop() { u.ticker.Stop() }

// Running reports whether the controller is polling.
func (u *Upper) Running() bool { return u.ticker.Active() }

// Cycles returns completed cycles.
func (u *Upper) Cycles() uint64 { return u.cycles }

// LastAggregate returns the most recent aggregate and validity.
func (u *Upper) LastAggregate() (power.Watts, bool) { return u.lastAgg, u.lastValid }

// History returns the aggregate power series.
func (u *Upper) History() *metrics.Series { return u.history }

// CapEvents returns how many capping actions were taken.
func (u *Upper) CapEvents() uint64 { return u.capEvents }

// UncapEvents returns how many uncap actions were taken.
func (u *Upper) UncapEvents() uint64 { return u.uncapEvents }

// Journal returns the controller's decision log (oldest-first ring).
func (u *Upper) Journal() *Journal { return u.journal }

// AdoptJournal seeds this controller with a predecessor's decision
// records and cycle counter (failover handoff). Call before Start.
func (u *Upper) AdoptJournal(recs []DecisionRecord, cycles uint64) {
	u.journal.Absorb(recs)
	if cycles > u.cycles {
		u.cycles = cycles
	}
}

// AdoptInternals restores the last action and contractual limit from a
// predecessor's final checkpoint. Call with AdoptJournal, before Start.
func (u *Upper) AdoptInternals(ck ControllerCheckpoint) {
	u.lastAction = ck.LastAction
	u.contract = ck.Contract
}

// CheckpointWriter returns the attached state-store writer (nil when
// checkpointing is disabled).
func (u *Upper) CheckpointWriter() *statestore.Writer { return u.ckpt }

// ContractedChildren returns the IDs currently under a contractual limit.
func (u *Upper) ContractedChildren() []string {
	var out []string
	for _, st := range u.list {
		if st.contracted {
			out = append(out, st.id)
		}
	}
	return out
}

// EffectiveLimit is min(physical, contract-from-parent).
func (u *Upper) EffectiveLimit() power.Watts {
	if u.contract > 0 && u.contract < u.cfg.Limit {
		return u.contract
	}
	return u.cfg.Limit
}

// effectiveBands mirrors Leaf.effectiveBands: contractual limits are
// enforced directly rather than re-margined (see the comment there).
func (u *Upper) effectiveBands() Bands {
	if u.contract > 0 && u.contract < u.cfg.Limit {
		return contractBands(u.contract, u.cfg.Bands)
	}
	return u.cfg.Bands.BandsFor(u.cfg.Limit)
}

func (u *Upper) pollCycle() {
	if u.inflight > 0 || u.cycleOpen {
		return
	}
	u.cycleSeq++
	seq := u.cycleSeq
	u.cycleOpen = true
	if u.tel != nil {
		u.cycleStartAt = u.loop.Now()
		u.tel.cycleStart(u.cycles+1, u.cycleStartAt)
	}
	u.inflight = len(u.list)
	if u.inflight == 0 {
		u.complete()
		return
	}
	for _, st := range u.list {
		st.rawValid = false
		st.ok = false
		u.call(st, MethodCtrlReadPower, rpc.Empty,
			func(resp []byte, err error) { u.onPull(seq, st, resp, err) })
	}
}

func (u *Upper) onPull(seq uint64, st *childState, resp []byte, err error) {
	if seq != u.cycleSeq {
		return
	}
	if err != nil && u.tel != nil {
		u.tel.rpcFailure(u.cycles+1, u.loop.Now(), st.id, "child pull", err)
	}
	if err == nil {
		st.rawValid = true
		st.raw = append(st.raw[:0], resp...)
	}
	u.inflight--
	if u.inflight == 0 {
		u.complete()
	}
}

// complete hands the collected cycle to its phases (see Leaf.complete).
func (u *Upper) complete() {
	if u.sched != nil {
		u.sched.submit(u, u.schedOrder)
		return
	}
	now := u.loop.Now()
	u.runObserveDecide(now)
	u.runAct(now)
}

// runObserveDecide is the upper controller's observe+decide phase: decode
// child responses, run stale accounting and aggregation, evaluate the
// bands, and compute the contract cuts into u.plan. Controller-local
// state only; safe on a cohort worker.
func (u *Upper) runObserveDecide(now time.Duration) {
	if u.tel != nil {
		//lint:allow wallclock — wall-clock phase-latency for operator histograms; guarded by a tel nil-check and never feeds control decisions
		defer u.tel.observeDone(time.Now())
	}
	u.cycles++
	p := &u.plan
	*p = upperPlan{prevAction: u.lastAction, cuts: p.cuts[:0], alerts: p.alerts[:0]}

	for _, st := range u.list {
		if !st.rawValid {
			continue
		}
		r := &u.msg
		u.dec.Reset(st.raw)
		if derr := r.UnmarshalWire(&u.dec); derr == nil && r.Valid {
			st.ok = true
			st.reading = power.Watts(r.AggWatts)
			st.lastAgg = st.reading
			st.everSeen = true
			if r.QuotaWatts > 0 {
				st.quota = power.Watts(r.QuotaWatts)
			}
		}
	}

	stale := 0
	staleSeen := false
	var total power.Watts
	for _, st := range u.list {
		if st.ok {
			st.stale = false
			st.staleFor = 0
		} else {
			stale++
			st.stale = true
			st.staleFor++
			st.reading = st.lastAgg // reuse last-known
			if st.everSeen {
				staleSeen = true
			}
		}
		total += st.reading
	}
	p.stale = stale
	staleFrac := 0.0
	if len(u.list) > 0 {
		staleFrac = float64(stale) / float64(len(u.list))
	}
	if staleFrac > u.cfg.MaxStaleFrac {
		u.lastValid = false
		p.invalid = true
		// During the first cycles after a (re)start, children may simply
		// not have completed their own first aggregation yet; that is
		// expected and not alert-worthy.
		if u.cycles > 2 || staleSeen {
			p.alert(AlertCritical,
				"aggregation invalid: %d/%d children unreachable", stale, len(u.list))
		}
		p.rec = DecisionRecord{
			Cycle: u.cycles, Time: now, Valid: false, Failures: stale,
		}
		return
	}

	u.lastAgg = total
	u.lastValid = true
	p.agg = total
	p.effLimit = u.EffectiveLimit()

	u.recentAgg = append(u.recentAgg, total)
	if len(u.recentAgg) > 3 {
		u.recentAgg = u.recentAgg[1:]
	}
	var smoothed power.Watts
	for _, v := range u.recentAgg {
		smoothed += v
	}
	smoothed /= power.Watts(len(u.recentAgg))

	bands := u.effectiveBands()
	anyContracted := len(u.ContractedChildren()) > 0
	action := bands.Decide(total, anyContracted)
	p.action = action
	u.lastAction = action
	p.rec = DecisionRecord{
		Cycle: u.cycles, Time: now, Agg: total, Valid: true,
		EffLimit: p.effLimit, Action: action, DryRun: u.cfg.DryRun,
	}
	switch action {
	case ActionCap:
		// Conservative single-step actuation (paper §III-C2, ref [22]):
		// size the cut from the smaller of the live and smoothed
		// aggregates so a single noisy sample cannot inflate it, and let
		// the previous action settle (leaf cycle + RAPL + read-back)
		// before tightening again.
		if u.cycles >= u.holdoffUntil {
			basis := total
			if smoothed < basis {
				basis = smoothed
			}
			p.rec.Target = bands.CapTarget
			u.planCap(p, basis, bands.CapTarget)
			p.rec.ServersPlanned, p.rec.Achieved, p.rec.Shortfall = p.planned, p.achieved, p.shortfall
		}
	case ActionUncap:
		if !u.cfg.DryRun {
			p.sendUncaps = true
		}
	}
	p.contractedCount = len(u.ContractedChildren())
}

// runAct applies the plan: journal and history writes, telemetry, alert
// emission, and contract RPCs, serially on the loop goroutine.
//
//dynamo:serial
func (u *Upper) runAct(now time.Duration) {
	p := &u.plan
	defer func() { u.cycleOpen = false }()

	if p.invalid {
		if u.tel != nil {
			u.tel.invalidCycle(u.cycles, u.cycleStartAt, now, p.stale, len(u.list))
		}
		u.emitAlerts(now, p)
		u.journal.Add(p.rec)
		u.checkpoint(now, p.rec)
		return
	}

	u.history.Add(now, float64(p.agg))
	if u.tel != nil && p.action != p.prevAction {
		u.tel.transition(u.cycles, now, p.prevAction, p.action)
	}
	if u.tel != nil && p.planComputed {
		u.tel.capPlan(u.cycles, now, p.planned, p.achieved, p.shortfall, u.cfg.DryRun)
	}
	u.emitAlerts(now, p)
	if p.sendCuts {
		u.capEvents++
		u.sendContracts(now, p.cuts)
	}
	if p.sendUncaps {
		u.uncapEvents++
		u.sendClearContracts()
	}
	u.journal.Add(p.rec)
	u.checkpoint(now, p.rec)
	if u.tel != nil {
		u.tel.cycleEnd(u.cycles, u.cycleStartAt, now, p.agg, p.effLimit,
			p.contractedCount, p.action)
	}
}

// checkpoint mirrors Leaf.checkpoint: act-phase state write, zombie
// self-stop on fencing.
func (u *Upper) checkpoint(now time.Duration, rec DecisionRecord) {
	if u.ckpt == nil {
		return
	}
	fenced, err := writeCheckpoint(u.ckpt, u.journal, rec, u.cycles, u.lastAction, u.contract, nil)
	if err == nil {
		return
	}
	if fenced {
		u.cfg.Alerts.emit(now, AlertCritical, u.cfg.DeviceID,
			"checkpoint fenced (stream epoch %d superseded by adoption); stopping zombie controller",
			u.ckpt.Epoch())
		u.Stop()
		return
	}
	u.cfg.Alerts.emit(now, AlertWarning, u.cfg.DeviceID, "checkpoint append failed: %v", err)
}

func (u *Upper) emitAlerts(now time.Duration, p *upperPlan) {
	for _, a := range p.alerts {
		u.cfg.Alerts.emit(now, a.level, u.cfg.DeviceID, "%s", a.msg)
	}
}

// planCap runs punish-offender-first (paper §III-D): the needed cut is
// distributed among children whose usage exceeds their power quota,
// high-bucket-first on the overage; only if the offenders cannot absorb it
// does the residual spread to the remaining children. Observe-phase: it
// computes the contracts (updating this controller's own child book-
// keeping) and defers the sends to the act phase.
func (u *Upper) planCap(p *upperPlan, agg, target power.Watts) {
	needed := agg - target
	if needed <= 0 {
		return
	}
	cuts := u.planChildCuts(needed)
	u.holdoffUntil = u.cycles + 2
	// Sum in sorted child order: float addition is not associative, and
	// the achieved total feeds shortfall alerts and the journal.
	ids := make([]string, 0, len(cuts))
	for id := range cuts {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var achieved power.Watts
	for _, id := range ids {
		achieved += cuts[id]
	}
	shortfall := needed - achieved
	if shortfall < 0 {
		shortfall = 0
	}
	p.planned, p.achieved, p.shortfall = len(cuts), achieved, shortfall
	p.planComputed = true
	if u.cfg.DryRun {
		p.alert(AlertInfo, "dry-run: would contract %d children", len(cuts))
		return
	}
	for _, st := range u.list {
		cut, hit := cuts[st.id]
		if !hit {
			continue
		}
		contract := st.reading - cut
		if st.contracted && st.contract < contract {
			contract = st.contract // never loosen mid-incident
		}
		st.contract = contract
		st.contracted = true
		p.cuts = append(p.cuts, childCut{id: st.id, contract: contract})
	}
	p.sendCuts = true
}

// sendContracts issues the planned contracts, in fixed child order
// (act-phase).
func (u *Upper) sendContracts(now time.Duration, cuts []childCut) {
	for _, c := range cuts {
		st := u.children[c.id]
		if u.tel != nil {
			u.tel.contractIssued(u.cycles, now, st.id, c.contract)
		}
		req := &SetContractRequest{LimitWatts: float64(c.contract)}
		u.call(st, MethodCtrlSetContract, req, func(resp []byte, err error) {
			var ack AckResponse
			if derr := rpc.Decode(resp, err, &ack); derr != nil || !ack.OK {
				if u.tel != nil {
					u.tel.rpcFailure(u.cycles, u.loop.Now(), st.id, "set contract", derr)
				}
				u.cfg.Alerts.emit(u.loop.Now(), AlertWarning, u.cfg.DeviceID,
					"contract to %s failed", st.id)
			}
		})
	}
}

// planChildCuts distributes the needed cut: offenders first (down to their
// quota), then, if still unmet, across all children high-bucket-first.
func (u *Upper) planChildCuts(needed power.Watts) map[string]power.Watts {
	cuts := map[string]power.Watts{}
	remaining := needed

	// Pass 1: offenders, high-bucket-first on overage, floored at quota.
	var offenders []ServerState
	for _, st := range u.list {
		if st.quota > 0 && st.reading > st.quota {
			offenders = append(offenders, ServerState{
				ID:      st.id,
				Service: "offender",
				Power:   st.reading - st.quota, // overage
			})
		}
	}
	if len(offenders) > 0 && remaining > 0 {
		got, achieved := planGroup(offenders, remaining, u.cfg.OffenderBucket, 0)
		for id, c := range got {
			cuts[id] += c
		}
		remaining -= achieved
	}

	// Pass 2 (beyond the paper's example, needed when offenders alone
	// cannot absorb the cut): all children, high-bucket-first on usage,
	// floored at half their quota.
	if remaining > power.Watts(1) {
		var all []ServerState
		for _, st := range u.list {
			eff := st.reading - cuts[st.id]
			all = append(all, ServerState{ID: st.id, Service: "child", Power: eff})
		}
		sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
		var floor power.Watts
		for _, st := range u.list {
			if q := st.quota; q > 0 {
				floor += q / 2
			}
		}
		if len(u.list) > 0 {
			floor /= power.Watts(len(u.list))
		}
		got, _ := planGroup(all, remaining, u.cfg.OffenderBucket, floor)
		for id, c := range got {
			cuts[id] += c
		}
	}
	return cuts
}

// sendClearContracts releases all child contracts (act-phase).
func (u *Upper) sendClearContracts() {
	for _, st := range u.list {
		if !st.contracted {
			continue
		}
		u.call(st, MethodCtrlClearContract, rpc.Empty, func(resp []byte, err error) {
			var ack AckResponse
			if derr := rpc.Decode(resp, err, &ack); derr != nil || !ack.OK {
				if u.tel != nil {
					u.tel.rpcFailure(u.cycles, u.loop.Now(), st.id, "clear contract", derr)
				}
				u.cfg.Alerts.emit(u.loop.Now(), AlertWarning, u.cfg.DeviceID,
					"clear contract to %s failed", st.id)
				return
			}
			st.contracted = false
			st.contract = 0
		})
	}
}

// Handler serves the controller protocol for this device (so an MSB
// controller can pull an SB controller exactly as an SB pulls leaves).
func (u *Upper) Handler() rpc.Handler {
	return func(method string, body []byte) (wire.Message, error) {
		switch method {
		case MethodCtrlReadPower:
			capped := 0
			for _, st := range u.list {
				if st.contracted {
					capped++
				}
			}
			return &CtrlReadPowerResponse{
				AggWatts:      float64(u.lastAgg),
				Valid:         u.lastValid,
				CappedServers: capped,
				QuotaWatts:    float64(u.cfg.Quota),
				LimitWatts:    float64(u.cfg.Limit),
				ContractWatts: float64(u.contract),
			}, nil
		case MethodCtrlSetContract:
			var req SetContractRequest
			if err := wire.Unmarshal(body, &req); err != nil {
				return nil, err
			}
			u.contract = power.Watts(req.LimitWatts)
			if u.tel != nil {
				u.tel.contractReceived(u.loop.Now(), u.contract)
			}
			return &AckResponse{OK: true}, nil
		case MethodCtrlClearContract:
			u.contract = 0
			if u.tel != nil {
				u.tel.contractReceived(u.loop.Now(), 0)
			}
			return &AckResponse{OK: true}, nil
		case MethodCtrlPing:
			return &CtrlPingResponse{Healthy: u.Running(), Cycles: u.cycles}, nil
		default:
			return nil, fmt.Errorf("upper %s: unknown method %q", u.cfg.DeviceID, method)
		}
	}
}
