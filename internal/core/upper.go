package core

import (
	"slices"
	"strings"
	"time"

	"dynamo/internal/power"
	"dynamo/internal/rpc"
	"dynamo/internal/simclock"
	"dynamo/internal/statestore"
	"dynamo/internal/telemetry"
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
	// OffenderBucket is the bucket width for distributing cuts among
	// offending children (the kW-scale analogue of the 20 W server
	// bucket).
	OffenderBucket power.Watts
	// DryRun computes decisions without sending contracts.
	DryRun bool
	// Alerts receives operator alerts.
	Alerts AlertFunc
	// Telemetry, when set, receives operational metrics, and the
	// controller keeps an event ring for Status. nil (the default)
	// disables telemetry entirely, as in LeafConfig.
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

// maxStaleFrac is the fraction of children allowed to be stale (unreachable
// this cycle, reusing last-known values) before the aggregation is declared
// invalid.
const maxStaleFrac = 0.5

func (c *UpperConfig) fillDefaults() {
	if c.PollInterval <= 0 {
		c.PollInterval = 9 * time.Second
	}
	if c.PullTimeout <= 0 {
		c.PullTimeout = c.PollInterval / 2
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
	pull
	quota power.Watts

	lastAgg  power.Watts
	everSeen bool
	stale    bool
	staleFor int
	contract power.Watts // what the child holds while capped

	reading power.Watts // cycle-local
}

// Upper is an upper-level power controller: the cycle kernel over child
// controllers, coordinating them through contractual power limits. Like
// the kernel it is loop-confined.
type Upper struct {
	cycleKernel
	cfg UpperConfig // the upper-only knobs; what both levels share lives in the kernel

	list []*childState // the children in configuration order; every per-cycle loop walks this

	// Reused across pulls by the observe phase (see the Leaf fields).
	msg CtrlReadPowerResponse

	// recentAgg is a ring of the last three valid aggregates, recentN of
	// them filled and the next written at recentNext; cut sizing uses their
	// mean so a single noisy 9 s sample cannot inflate the needed cut
	// beyond the offenders' over-quota headroom.
	recentAgg  [3]power.Watts
	recentN    int
	recentNext int
	// holdoffUntil is the cycle count before which no further capping is
	// issued, giving the previous action time to settle downstream.
	holdoffUntil uint64

	// Planning scratch, kept across cycles: per child (list order) its
	// planned cut and whether the plan gave it a share (hit), the children
	// in ID order, which is the order cuts are summed in, and the planner.
	// The children hit are the ones act contracts, in list order, so the
	// send order — and with it the RPC event sequence — is deterministic.
	cut     []power.Watts
	hit     []bool
	byID    []int
	planner planner
}

// NewUpper creates an upper-level controller over child controllers.
func NewUpper(loop simclock.Loop, cfg UpperConfig, children []ChildRef) *Upper {
	cfg.fillDefaults()
	n := len(children)
	u := &Upper{cfg: cfg, list: make([]*childState, 0, n),
		cut: make([]power.Watts, n), hit: make([]bool, n), byID: make([]int, n)}
	pulls := make([]*pull, 0, n)
	for i, c := range children {
		st := &childState{pull: pull{id: c.ID, client: c.Client}, quota: c.Quota}
		u.list = append(u.list, st)
		pulls = append(pulls, &st.pull)
		u.byID[i] = i
	}
	slices.SortFunc(u.byID, func(a, b int) int { return strings.Compare(u.list[a].id, u.list[b].id) })
	u.init(loop, u, cycleConfig{
		kind: "upper", pullMethod: MethodCtrlReadPower, pullOp: "child pull",
		deviceID: cfg.DeviceID, limit: cfg.Limit, quota: cfg.Quota, bands: cfg.Bands,
		pollInterval: cfg.PollInterval, pullTimeout: cfg.PullTimeout,
		dryRun: cfg.DryRun, alerts: cfg.Alerts, sched: cfg.Scheduler, ckpt: cfg.Checkpoint,
	}, cfg.Telemetry, cfg.Retry, pulls)
	return u
}

// ContractedChildren returns the IDs currently under a contractual limit.
func (u *Upper) ContractedChildren() []string {
	var out []string
	for _, st := range u.list {
		if st.capped {
			out = append(out, st.id)
		}
	}
	return out
}

// selectPulls: every child is pulled every cycle.
func (u *Upper) selectPulls() (skipped int) { return 0 }

// aggregate decodes the children's answers; a child that did not answer
// (or whose own aggregation is invalid) is stale and counted at its
// last-known value.
func (u *Upper) aggregate(p *cyclePlan) (power.Watts, bool) {
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
	staleFrac := 0.0
	if len(u.list) > 0 {
		staleFrac = float64(stale) / float64(len(u.list))
	}
	if staleFrac > maxStaleFrac {
		// The journal counts stale children only when they invalidate the
		// cycle. During the first cycles after a (re)start, children may
		// simply not have completed their own first aggregation yet; that
		// is expected and not alert-worthy.
		p.rec.Failures = stale
		if u.cycles > 2 || staleSeen {
			p.alert(Alert{Kind: KindChildrenStale, Count: stale, Of: len(u.list)})
		}
		return 0, false
	}
	return total, true
}

// decide runs three-band control over the children's total and, for a
// cut, plans contracts punish-offender-first.
func (u *Upper) decide(now time.Duration, p *cyclePlan) {
	agg := p.rec.Agg
	u.recentAgg[u.recentNext] = agg
	u.recentNext = (u.recentNext + 1) % len(u.recentAgg)
	if u.recentN < len(u.recentAgg) {
		u.recentN++
	}
	// Oldest first: the ring starts at slot 0 until it is full.
	oldest := 0
	if u.recentN == len(u.recentAgg) {
		oldest = u.recentNext
	}
	var smoothed power.Watts
	for i := 0; i < u.recentN; i++ {
		smoothed += u.recentAgg[(oldest+i)%len(u.recentAgg)]
	}
	smoothed /= power.Watts(u.recentN)

	bands := u.effectiveBands()
	p.rec.Action = bands.Decide(agg, p.capCount > 0)
	switch p.rec.Action {
	case ActionCap:
		// Conservative single-step actuation (paper §III-C2, ref [22]):
		// size the cut from the smaller of the live and smoothed
		// aggregates so a single noisy sample cannot inflate it, and let
		// the previous action settle (leaf cycle + RAPL + read-back)
		// before tightening again.
		if u.cycles >= u.holdoffUntil {
			basis := agg
			if smoothed < basis {
				basis = smoothed
			}
			p.rec.Target = bands.CapTarget
			u.planCap(p, basis-bands.CapTarget)
		}
	case ActionUncap:
		if !u.dryRun {
			p.sendUncaps = true
		}
	}
}

// planCap runs punish-offender-first (paper §III-D): the needed cut is
// distributed among children whose usage exceeds their power quota,
// high-bucket-first on the overage; only if the offenders cannot absorb it
// does the residual spread to the remaining children. Observe-phase: it
// computes the contracts (updating this controller's own child book-
// keeping) and defers the sends to the act phase.
func (u *Upper) planCap(p *cyclePlan, needed power.Watts) {
	if needed <= 0 {
		return
	}
	u.planChildCuts(needed)
	u.holdoffUntil = u.cycles + 2
	// Sum in child-ID order: float addition is not associative, and the
	// achieved total feeds shortfall alerts and the journal.
	var achieved power.Watts
	planned := 0
	for _, i := range u.byID {
		if u.hit[i] {
			achieved += u.cut[i]
			planned++
		}
	}
	shortfall := needed - achieved
	if shortfall < 0 {
		shortfall = 0
	}
	p.rec.ServersPlanned, p.rec.Achieved, p.rec.Shortfall = planned, achieved, shortfall
	p.planComputed = true
	if u.dryRun {
		p.alert(Alert{Kind: KindDryRunContract, Count: planned})
		return
	}
	for i, st := range u.list {
		if !u.hit[i] {
			continue
		}
		contract := st.reading - u.cut[i]
		if st.capped && st.contract < contract {
			contract = st.contract // never loosen mid-incident
		}
		st.contract = contract
		st.capped = true
	}
	p.capCount = u.cappedCount()
	p.sendCaps = true
}

// planChildCuts distributes the needed cut into u.cut and u.hit: offenders
// first (down to their quota), then, if still unmet, across all children
// high-bucket-first.
func (u *Upper) planChildCuts(needed power.Watts) {
	clear(u.cut)
	clear(u.hit)
	remaining := needed
	// add folds one pass's shares into the plan.
	add := func(group []member) {
		for _, m := range group {
			if m.hit {
				u.cut[m.i] += m.cut
				u.hit[m.i] = true
			}
		}
	}

	// Pass 1: offenders, high-bucket-first on overage, floored at quota.
	group := u.planner.members[:0]
	for i, st := range u.list {
		if st.quota > 0 && st.reading > st.quota {
			group = append(group, member{power: st.reading - st.quota, i: int32(i)}) // overage
		}
	}
	if len(group) > 0 && remaining > 0 {
		remaining -= u.planner.planGroup(group, remaining, u.cfg.OffenderBucket, 0)
		add(group)
	}

	// Pass 2 (beyond the paper's example, needed when offenders alone
	// cannot absorb the cut): all children in ID order, high-bucket-first
	// on usage, floored at half their quota.
	if remaining > power.Watts(1) {
		group = group[:0]
		for _, i := range u.byID {
			group = append(group, member{power: u.list[i].reading - u.cut[i], i: int32(i)})
		}
		var floor power.Watts
		for _, st := range u.list {
			if q := st.quota; q > 0 {
				floor += q / 2
			}
		}
		if len(u.list) > 0 {
			floor /= power.Watts(len(u.list))
		}
		u.planner.planGroup(group, remaining, u.cfg.OffenderBucket, floor)
		add(group)
	}
	u.planner.members = group
}

// act sends the planned contracts, or releases every contract on an uncap.
// An upper controller holds nothing on its children that would lapse, so
// an invalid cycle sends nothing.
//
//dynamo:serial
func (u *Upper) act(now time.Duration, p *cyclePlan, live bool) {
	if !live {
		return
	}
	if p.sendCaps {
		u.sendContracts(now)
	}
	if p.sendUncaps {
		u.sendClearContracts()
	}
}

// sendContracts issues the planned contracts.
func (u *Upper) sendContracts(now time.Duration) {
	for i, st := range u.list {
		if !u.hit[i] {
			continue
		}
		if u.tel != nil {
			u.tel.contractIssued(now, u.cycles, st.id, st.contract)
		}
		u.send(&st.pull, opSetContract, st.contract)
	}
}

// sendClearContracts releases all child contracts.
func (u *Upper) sendClearContracts() {
	for _, st := range u.list {
		if st.capped {
			u.send(&st.pull, opClearContract, 0)
		}
	}
}
