package core

import (
	"errors"
	"fmt"
	"time"

	"dynamo/internal/agent"
	"dynamo/internal/power"
	"dynamo/internal/rpc"
	"dynamo/internal/simclock"
	"dynamo/internal/statestore"
	"dynamo/internal/telemetry"
	"dynamo/internal/wire"
)

// The paper applies one loop at every level of the power tree: pull the
// children, aggregate, run the three-band decision, actuate (§III-C for
// leaves, §III-D for upper levels: 9 s instead of 3 s, contracts instead of
// RAPL caps). cycleKernel is that loop. Leaf and Upper embed it and supply
// only what differs by level through the level interface.

// pull is the kernel's view of one child: whom to call and what the call
// returned this cycle. Levels embed it by value in their per-child state.
// raw holds a copy of the undecoded pull response (the transport's buffer
// is only valid inside the completion callback) in storage reused from
// cycle to cycle; decoding happens in the observe phase, so the callback
// does no per-child work beyond copying bytes.
// Its completions, bound on first issue, are picked by cycle parity: a cycle
// opens only once the last one's pulls are all complete, so the other is stale.
// The act phase's commands to the child go through cmd.
type pull struct {
	id       string
	client   rpc.Client
	k        *cycleKernel
	done     [2]func([]byte, error) // onEven, onOdd; nil until first issued
	raw      []byte
	cmd      *command // nil until the first command
	rawValid bool
	ok       bool // the level decoded a usable reading this cycle
	skip     bool // not pulled this cycle
	probe    bool // pulled with one unretried attempt this cycle
	awaiting bool // issued this cycle and not yet completed
	capped   bool // held down: a capped server for a leaf, a contracted child for an upper
}

func (h *pull) onEven(resp []byte, err error) { h.k.onPull(h, 0, resp, err) }
func (h *pull) onOdd(resp []byte, err error)  { h.k.onPull(h, 1, resp, err) }

// level is what differs between a leaf and an upper controller.
// aggregate and decide make up the observe+decide phase: they may run on a
// cohort worker, touch only the controller's own state, and neither send
// RPCs nor raise alerts or record telemetry (alerts go through
// cyclePlan.alert).
// selectPulls and act run on the loop goroutine.
type level interface {
	// selectPulls marks the children to leave out of this cycle (skip) or
	// to try once without retries (probe) and returns how many it left out.
	selectPulls() (skipped int)
	// aggregate decodes the collected responses into one power figure.
	// valid=false declares the aggregation unusable; p.rec.Failures is what
	// the journal records as failed pulls.
	aggregate(p *cyclePlan) (agg power.Watts, valid bool)
	// decide runs the level's control law on a valid aggregate (p.rec.Agg
	// against p.rec.EffLimit, with p.capCount children held down) and plans
	// the actuation: the record's Action, for a cut its Target and plan
	// outcome, and what act has to send.
	decide(now time.Duration, p *cyclePlan)
	// act applies the plan, on invalid cycles too. live=false means the
	// controller was stopped after this cycle was collected: the level may
	// record, but must send nothing.
	act(now time.Duration, p *cyclePlan, live bool)
}

// cycleConfig is the configuration both levels share; the constructors copy
// it out of LeafConfig/UpperConfig.
type cycleConfig struct {
	kind       string // "leaf" or "upper": telemetry label, handler error prefix, Status.Level
	pullMethod string
	pullOp     string // how a failed pull is named in telemetry

	deviceID     string
	limit, quota power.Watts
	bands        BandConfig
	pollInterval time.Duration
	pullTimeout  time.Duration
	dryRun       bool
	capLease     time.Duration // stamped on every SetCap and every pull of a capped child (leaf; 0 = no lease)
	alerts       AlertFunc
	sched        *CohortScheduler
	ckpt         *statestore.Writer
}

// cyclePlan is the outcome of one observe+decide phase: the journal record
// (aggregate, decision, plan outcome) and what the act phase has to do
// about it. The act phase applies it verbatim, so the two phases share no
// implicit state; what a level plans beyond these fields (caps, contract
// cuts) it keeps itself.
type cyclePlan struct {
	rec          DecisionRecord
	prevAction   Action
	capCount     int
	planComputed bool
	sendCaps     bool
	sendUncaps   bool
	// alerts are composed during observe+decide (which may run off-loop)
	// and raised during the serial act phase; the slice is reused.
	alerts []Alert
}

func (p *cyclePlan) alert(a Alert) { p.alerts = append(p.alerts, a) }

// cycleKernel is one controller's pull → aggregate → decide → act loop and
// everything around it that does not depend on the level. It is confined
// to its event loop: all methods (including the RPC handler) must run on
// loop callbacks, except runObserveDecide, which the cohort scheduler may
// run on a worker while the loop goroutine waits.
type cycleKernel struct {
	cycleConfig
	loop  simclock.Loop
	lvl   level
	pulls []*pull // the level's children, in configuration order

	ticker   *simclock.Ticker
	cycleSeq uint64
	inflight int
	cycles   uint64

	// gen counts controller lifetimes: Stop bumps it, and every command
	// completion captured under an older generation is a no-op. cycleGen is
	// the generation the open cycle started under.
	gen      uint64
	cycleGen uint64

	// retrier issues every downstream call (one attempt when retries are
	// off); retries counts re-attempts across all of them.
	retrier *rpc.Retrier
	retries uint64

	contract   power.Watts // from the parent; 0 = none
	lastAgg    power.Watts
	lastValid  bool
	lastAction Action
	pid        *pidState // leaf PID control; nil under three-band control

	journal     *Journal
	capEvents   uint64
	uncapEvents uint64

	// cycleOpen is true from pollCycle until the act phase completes.
	// Reconfiguration requested in that window waits in deferred for the
	// cycle boundary, so it cannot race an observe phase on a worker.
	schedOrder        int
	cycleOpen         bool
	plan              cyclePlan
	deferred          []func()
	deferredReconfigs uint64

	tel          *ctrlInstr // nil when telemetry is disabled
	cycleStartAt time.Duration
	resp         CtrlReadPowerResponse // the Handler's pull reply, reused

	// dec decodes what the children answer: pull responses in the observe
	// phase and, on the loop, which no observe phase overlaps, command acks
	// into agentAck (from agents) or ctrlAck (from controllers), and the
	// parent's contracts (Handler).
	dec      wire.Decoder
	agentAck agent.CapResponse
	ctrlAck  AckResponse

	// leasedPull is the body of every pull of a capped child while capLease
	// is set: the pull renews the cap's lease. Retries re-send it, so it
	// never changes. renewAll sends it to every child for one cycle, the
	// first of a promoted standby (StartPromoted).
	leasedPull agent.ReadPowerRequest
	renewAll   bool
}

func (k *cycleKernel) init(loop simclock.Loop, lvl level, cfg cycleConfig, sink *telemetry.Sink, retry RetryConfig, pulls []*pull) {
	k.cycleConfig = cfg
	if k.bands == (BandConfig{}) {
		k.bands = DefaultBandConfig()
	}
	k.loop, k.lvl, k.pulls = loop, lvl, pulls
	k.leasedPull.LeaseNanos = uint64(cfg.capLease)
	for _, h := range pulls {
		h.k = k
	}
	k.journal = NewJournal(512)
	k.tel = newCtrlInstr(sink, cfg.deviceID, cfg.kind)
	k.alerts = k.tel.wrapAlerts(cfg.alerts)
	if k.sched != nil {
		k.schedOrder = k.sched.register()
	}
	pol := retry.policy(cfg.pollInterval)
	pol.OnRetry = k.onRetry
	k.retrier = rpc.NewRetrier(loop, pol)
	k.ticker = simclock.NewTicker(loop, cfg.pollInterval, k.pollCycle)
}

// call issues one downstream RPC under the configured retry policy; with
// retries disabled it is a plain single-attempt Call. Always invoked on
// the loop goroutine (poll broadcast or act phase).
func (k *cycleKernel) call(h *pull, method string, req wire.Message, done func([]byte, error)) {
	k.retrier.Call(h.client, method, h.id, req, k.pullTimeout, done)
}

// onRetry observes each re-attempt of a downstream call.
func (k *cycleKernel) onRetry(id, method string, attempt int, err error) {
	k.retries++
	if k.tel != nil {
		k.tel.rpcRetry(k.loop.Now(), k.cycles, id, method, attempt, err)
	}
}

// commandOp is an act-phase command to a child.
type commandOp uint8

const (
	opSetCap        commandOp = iota // leaf to agent
	opClearCap                       // leaf to agent
	opSetContract                    // upper to child controller
	opClearContract                  // upper to child controller
)

// commandOps gives each command its method and how a failure is named in
// the event ring (op) and in the warning alert (what).
var commandOps = [...]struct{ method, op, what string }{
	opSetCap:        {agent.MethodSetCap, "cap command", "cap command"},
	opClearCap:      {agent.MethodClearCap, "uncap command", "uncap command"},
	opSetContract:   {MethodCtrlSetContract, "set contract", "contract"},
	opClearContract: {MethodCtrlClearContract, "clear contract", "clear contract"},
}

// command is a child's reusable act-phase command record: its completion
// is bound once and it is itself the request it sends, so once every child
// has one a cap, uncap or contract allocates nothing. A record carries one
// call at a time: a retry re-sends the request the call was first sent
// with, and the ack applies that call's outcome. A command issued while
// the child's previous one is still in flight gets a fresh record.
type command struct {
	h     *pull
	gen   uint64  // the controller generation the call was sent under
	value float64 // the cap or contract a set carries
	op    commandOp
	busy  bool                // a call is in flight
	done  func([]byte, error) // c.acked, bound once
}

// send issues a command to child h: a set carries value, the cap or
// contract. Like every act-phase send it runs on the loop goroutine.
func (k *cycleKernel) send(h *pull, op commandOp, value power.Watts) {
	c := h.cmd
	if c == nil || c.busy {
		c = &command{h: h}
		c.done = c.acked
		h.cmd = c
	}
	c.gen, c.value, c.op, c.busy = k.gen, float64(value), op, true
	k.call(h, commandOps[op].method, c, c.done)
}

// MarshalWire implements wire.Message: the request of the command's op,
// a set's carrying its value (and a SetCap the leaf's lease).
func (c *command) MarshalWire(e *wire.Encoder) {
	switch c.op {
	case opSetCap:
		req := agent.SetCapRequest{LimitWatts: c.value, LeaseNanos: uint64(c.h.k.capLease)}
		req.MarshalWire(e)
	case opSetContract:
		req := SetContractRequest{LimitWatts: c.value}
		req.MarshalWire(e)
	}
}

// UnmarshalWire implements wire.Message. A command is only ever sent.
func (c *command) UnmarshalWire(*wire.Decoder) error {
	return errors.New("core: a command is not decoded")
}

// acked takes a command's outcome. A Stop since the call was sent fences
// it: an ack (or a late retry) must not touch a stopped controller.
func (c *command) acked(resp []byte, err error) {
	h := c.h
	k := h.k
	c.busy = false
	if k.gen != c.gen {
		return
	}
	ok, err := k.decodeAck(resp, err, c.op <= opClearCap)
	if err != nil || !ok {
		k.commandFailed(h, c.op, err)
		return
	}
	switch c.op {
	case opSetCap:
		h.capped = true
	case opClearCap, opClearContract:
		h.capped = false
	}
}

// decodeAck reads a command ack: an agent answers with an
// agent.CapResponse, a child controller with an AckResponse. err is the
// call's own error, returned as it is.
func (k *cycleKernel) decodeAck(resp []byte, err error, fromAgent bool) (ok bool, _ error) {
	if err != nil {
		return false, err
	}
	k.dec.Reset(resp)
	if fromAgent {
		err = k.agentAck.UnmarshalWire(&k.dec)
		return k.agentAck.OK, err
	}
	err = k.ctrlAck.UnmarshalWire(&k.dec)
	return k.ctrlAck.OK, err
}

// commandFailed reports an act-phase command the child did not accept.
func (k *cycleKernel) commandFailed(h *pull, op commandOp, err error) {
	now := k.loop.Now()
	if k.tel != nil {
		k.tel.rpcFailure(now, k.cycles, h.id, commandOps[op].op, err)
	}
	k.raise(now, Alert{Kind: KindCommandFailed, Peer: h.id, Op: commandOps[op].what})
}

// raise stamps an alert with the time, the cycle count and this
// controller's device and hands it to the alert sink.
func (k *cycleKernel) raise(now time.Duration, a Alert) {
	a.Time, a.Cycle, a.Controller = now, k.cycles, k.deviceID
	k.alerts.emit(a)
}

// cappedCount is the number of children currently held down: capped
// servers for a leaf, contracted children for an upper.
func (k *cycleKernel) cappedCount() int {
	n := 0
	for _, h := range k.pulls {
		if h.capped {
			n++
		}
	}
	return n
}

// atBoundary applies a reconfiguration at once between cycles, or at the
// end of the open cycle's act phase.
func (k *cycleKernel) atBoundary(apply func()) {
	if k.cycleOpen {
		k.deferred = append(k.deferred, apply)
		k.deferredReconfigs++
		return
	}
	apply()
}

// Retries returns how many downstream RPC re-attempts this controller
// has issued.
func (k *cycleKernel) Retries() uint64 { return k.retries }

// DeviceID returns the protected device's identifier.
func (k *cycleKernel) DeviceID() string { return k.deviceID }

// Start begins the pull cycle.
func (k *cycleKernel) Start() { k.ticker.Start() }

// StartPromoted starts a standby that takes over from a failed primary.
// Its first cycle runs at once, not one poll later, and every pull of it
// renews the lease of any cap the child holds: those caps are the
// predecessor's, now this controller's to hold or release, and detecting
// the failure (three missed probes) takes most of a lease TTL.
func (k *cycleKernel) StartPromoted() {
	k.renewAll = true
	k.ticker.StartNow()
}

// Stop halts the pull cycle (a crashed or fenced controller). Bumping the
// generation fences the cycle in flight: its act phase still journals and
// checkpoints, but sends nothing, and a command ack or retry landing after
// Stop does not touch controller state.
func (k *cycleKernel) Stop() {
	k.gen++
	k.ticker.Stop()
}

// Running reports whether the controller is polling.
func (k *cycleKernel) Running() bool { return k.ticker.Active() }

// Cycles returns the number of completed aggregation cycles.
func (k *cycleKernel) Cycles() uint64 { return k.cycles }

// LastAggregate returns the most recent aggregated power and validity.
func (k *cycleKernel) LastAggregate() (power.Watts, bool) { return k.lastAgg, k.lastValid }

// CapEvents returns how many capping actions this controller has taken.
func (k *cycleKernel) CapEvents() uint64 { return k.capEvents }

// UncapEvents returns how many uncap actions this controller has taken.
func (k *cycleKernel) UncapEvents() uint64 { return k.uncapEvents }

// Journal returns the controller's decision log (oldest-first ring).
func (k *cycleKernel) Journal() *Journal { return k.journal }

// AdoptJournal seeds this controller with a predecessor's decision
// records and cycle counter (failover handoff). Call before Start.
func (k *cycleKernel) AdoptJournal(recs []DecisionRecord, cycles uint64) {
	k.journal.Absorb(recs)
	if cycles > k.cycles {
		k.cycles = cycles
	}
}

// AdoptInternals restores band/PID internals, the last action, and the
// contractual limit from a predecessor's final checkpoint. Call with
// AdoptJournal, before Start.
func (k *cycleKernel) AdoptInternals(ck ControllerCheckpoint) {
	k.lastAction = ck.LastAction
	k.contract = ck.Contract
	if k.pid != nil {
		k.pid.integral = ck.PIDIntegral
		k.pid.last = ck.PIDLast
		k.pid.engaged = ck.PIDEngaged
		k.pid.started = ck.PIDStarted
	}
}

// CheckpointWriter returns the attached state-store writer (nil when
// checkpointing is disabled). The failover path uses it to continue the
// adopted stream at its granted epoch.
func (k *cycleKernel) CheckpointWriter() *statestore.Writer { return k.ckpt }

// contracted reports whether a parent's contract undercuts the breaker.
func (k *cycleKernel) contracted() bool { return k.contract > 0 && k.contract < k.limit }

// EffectiveLimit is min(physical, contractual) (paper §III-D).
func (k *cycleKernel) EffectiveLimit() power.Watts {
	if k.contracted() {
		return k.contract
	}
	return k.limit
}

// effectiveBands returns the decision bands. Against the physical breaker
// limit the configured fractions apply. Against a contractual limit the
// contract itself is the threshold and the target sits just below it: the
// parent that issued the contract already built in its own safety margin,
// and re-applying the 5 % target at every level would compound
// (0.95^depth), dropping settled power below the top-level uncap threshold
// and causing hierarchy-wide cap/uncap oscillation.
func (k *cycleKernel) effectiveBands() Bands {
	if k.contracted() {
		return contractBands(k.contract, k.bands)
	}
	return k.bands.BandsFor(k.limit)
}

// contractBands builds enforcement bands for a contractual limit.
func contractBands(contract power.Watts, cfg BandConfig) Bands {
	return Bands{
		CapThreshold:   contract,
		CapTarget:      power.Watts(float64(contract) * 0.99),
		UncapThreshold: power.Watts(float64(contract) * cfg.UncapThresholdFrac),
	}
}

// pollCycle broadcasts power pulls to the children (paper: "periodically
// broadcasts power pull requests over Thrift to all servers"). With a cap
// lease, every pull of a capped child, half-open probes included, renews
// its lease: a cap lives as long as its controller keeps pulling.
func (k *cycleKernel) pollCycle() {
	if k.inflight > 0 || k.cycleOpen {
		// Previous cycle still collecting or deciding (should not happen:
		// timeout < interval), skip to avoid overlapping aggregations.
		return
	}
	k.cycleSeq++
	k.cycleOpen = true
	k.cycleGen = k.gen
	if k.tel != nil {
		k.cycleStartAt = k.loop.Now()
	}
	for _, h := range k.pulls {
		h.rawValid, h.ok, h.skip, h.probe = false, false, false, false
	}
	k.inflight = len(k.pulls) - k.lvl.selectPulls()
	if k.inflight == 0 {
		k.complete()
		return
	}
	for _, h := range k.pulls {
		if h.skip {
			continue
		}
		if h.done[0] == nil {
			h.done = [2]func([]byte, error){h.onEven, h.onOdd}
		}
		h.awaiting = true
		done := h.done[k.cycleSeq&1]
		req := rpc.Empty
		if (h.capped || k.renewAll) && k.capLease > 0 {
			req = &k.leasedPull
		}
		if h.probe {
			h.client.Call(k.pullMethod, req, k.pullTimeout, done)
		} else {
			k.call(h, k.pullMethod, req, done)
		}
	}
	k.renewAll = false
}

// onPull records one pull completion. It runs on the loop goroutine and
// only stores the raw response; decoding is deferred to the observe
// phase, which may run on a cohort worker.
func (k *cycleKernel) onPull(h *pull, parity uint64, resp []byte, err error) {
	if parity != k.cycleSeq&1 || !h.awaiting {
		return // stale response from a superseded cycle, or a second delivery
	}
	h.awaiting = false
	if err != nil && k.tel != nil {
		k.tel.rpcFailure(k.loop.Now(), k.cycles+1, h.id, k.pullOp, err)
	}
	if err == nil {
		h.rawValid = true
		h.raw = append(h.raw[:0], resp...)
	}
	k.inflight--
	if k.inflight == 0 {
		k.complete()
	}
}

// complete hands the collected cycle to its phases: to the cohort
// scheduler when one is attached, else both phases run here, at the
// completion instant. This is the only place the two ways part.
func (k *cycleKernel) complete() {
	if k.sched != nil {
		k.sched.submit(k, k.schedOrder)
		return
	}
	now := k.loop.Now()
	k.runObserveDecide(now)
	k.runAct(now)
}

// runObserveDecide is the observe+decide phase: the level aggregates the
// collected responses and, on a valid aggregate, decides and plans; the
// outcome lands in k.plan. It reads and writes only this controller's own
// state, so the cohort scheduler may run it on a worker goroutine
// concurrently with other controllers' observe phases. No journal writes,
// alerts, telemetry, or RPC happen here — those are act-phase effects.
func (k *cycleKernel) runObserveDecide(now time.Duration) {
	if k.tel != nil {
		//lint:allow wallclock — wall-clock phase-latency for operator histograms; guarded by a tel nil-check and never feeds control decisions
		defer k.tel.observeDone(time.Now())
	}
	k.cycles++
	p := &k.plan
	*p = cyclePlan{prevAction: k.lastAction, alerts: p.alerts[:0]}
	// The limit the cycle ran against is recorded on every cycle, invalid
	// ones too: it does not depend on the readings.
	p.rec.Cycle, p.rec.Time, p.rec.EffLimit = k.cycles, now, k.EffectiveLimit()

	agg, valid := k.lvl.aggregate(p)
	k.lastValid = valid
	if !valid {
		// No action; the level's alert calls for human intervention
		// (paper §III-C1, §III-E).
		return
	}
	k.lastAgg = agg
	p.rec.Valid, p.rec.Agg, p.rec.DryRun = true, agg, k.dryRun
	p.capCount = k.cappedCount()
	k.lvl.decide(now, p)
	k.lastAction = p.rec.Action
}

// runAct is the act phase: apply the plan computed by runObserveDecide.
// It always runs on the loop goroutine — journal writes, alerts,
// telemetry, and RPC sends all happen here, serially and in fixed device
// order across the cohort.
//
//dynamo:serial
func (k *cycleKernel) runAct(now time.Duration) {
	p := &k.plan
	defer func() {
		k.cycleOpen = false
		for _, apply := range k.deferred {
			apply()
		}
		k.deferred = k.deferred[:0]
	}()
	// A controller stopped mid-cycle (crash, fencing) still finishes the
	// cycle's bookkeeping, but nothing leaves a dead controller.
	live := k.cycleGen == k.gen
	rec := &p.rec

	if k.tel != nil {
		if rec.Valid {
			k.tel.decided(p)
		} else {
			k.tel.invalidCycle(k.cycleStartAt, now)
		}
	}
	for _, a := range p.alerts {
		k.raise(now, a)
	}
	if live && p.sendCaps {
		k.capEvents++
	}
	if live && p.sendUncaps {
		k.uncapEvents++
	}
	k.lvl.act(now, p, live)
	k.journal.Add(*rec)
	k.checkpoint(now, rec)
	if k.tel != nil && rec.Valid {
		k.tel.cycleEnd(k.cycleStartAt, now, rec.Agg, rec.EffLimit, p.capCount)
	}
}

// checkpoint writes this cycle's state into the replicated store
// (act-phase effect, always after the journal write of the same cycle —
// see the ordering rule in checkpoint.go). A fenced append means a backup
// has adopted this device: this instance is a zombie and stops itself.
func (k *cycleKernel) checkpoint(now time.Duration, rec *DecisionRecord) {
	fenced, err := writeCheckpoint(k.ckpt, k.journal, rec, k.cycles, k.lastAction, k.contract, k.pid)
	if err == nil {
		return
	}
	if fenced {
		k.raise(now, Alert{Kind: KindCheckpointFenced, Epoch: k.ckpt.Epoch()})
		k.Stop()
		return
	}
	k.raise(now, Alert{Kind: KindCheckpointFailed, Err: err})
}

// ackOK is every successful contract reply; it is immutable.
var ackOK = &AckResponse{OK: true}

// Handler serves the controller-to-controller protocol for this device, so
// an MSB controller pulls an SB controller exactly as an SB pulls leaves.
// Every pull rewrites the one CtrlReadPower reply it returns (rpc.Handler).
func (k *cycleKernel) Handler() rpc.Handler {
	return func(method string, body []byte) (wire.Message, error) {
		switch method {
		case MethodCtrlReadPower:
			k.resp = CtrlReadPowerResponse{
				AggWatts:      float64(k.lastAgg),
				Valid:         k.lastValid,
				CappedServers: k.cappedCount(),
				QuotaWatts:    float64(k.quota),
				LimitWatts:    float64(k.limit),
				ContractWatts: float64(k.contract),
			}
			return &k.resp, nil
		case MethodCtrlSetContract:
			k.dec.Reset(body)
			var req SetContractRequest
			if err := req.UnmarshalWire(&k.dec); err != nil {
				return nil, err
			}
			k.setContract(power.Watts(req.LimitWatts))
			return ackOK, nil
		case MethodCtrlClearContract:
			k.setContract(0)
			return ackOK, nil
		case MethodCtrlPing:
			return &CtrlPingResponse{Healthy: k.Running(), Cycles: k.cycles}, nil
		default:
			return nil, fmt.Errorf("%s %s: unknown method %q", k.kind, k.deviceID, method)
		}
	}
}

func (k *cycleKernel) setContract(limit power.Watts) {
	k.contract = limit
	if k.tel != nil {
		k.tel.contractReceived(k.loop.Now(), k.cycles, limit)
	}
}
