package core

import (
	"sort"
	"time"

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

	lastAgg    power.Watts
	everSeen   bool
	stale      bool
	staleFor   int
	contract   power.Watts
	contracted bool

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
	dec wire.Decoder
	msg CtrlReadPowerResponse

	// recentAgg holds the last few valid aggregates; cut sizing uses
	// their mean so a single noisy 9 s sample cannot inflate the needed
	// cut beyond the offenders' over-quota headroom.
	recentAgg []power.Watts
	// holdoffUntil is the cycle count before which no further capping is
	// issued, giving the previous action time to settle downstream.
	holdoffUntil uint64

	// cuts are the contracts this cycle's decide phase planned, in fixed
	// child order, so the send order — and with it the RPC event sequence —
	// is deterministic.
	cuts []childCut
}

// childCut is one contract to issue.
type childCut struct {
	child    *childState
	contract power.Watts
}

// NewUpper creates an upper-level controller over child controllers.
func NewUpper(loop simclock.Loop, cfg UpperConfig, children []ChildRef) *Upper {
	cfg.fillDefaults()
	u := &Upper{cfg: cfg, list: make([]*childState, 0, len(children))}
	pulls := make([]*pull, 0, len(children))
	for _, c := range children {
		st := &childState{pull: pull{id: c.ID, client: c.Client}, quota: c.Quota}
		u.list = append(u.list, st)
		pulls = append(pulls, &st.pull)
	}
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
		if st.contracted {
			out = append(out, st.id)
		}
	}
	return out
}

func (u *Upper) cappedCount() int {
	n := 0
	for _, st := range u.list {
		if st.contracted {
			n++
		}
	}
	return n
}

// selectPulls: every child is pulled every cycle.
func (u *Upper) selectPulls() (skipped int) { return 0 }

// aggregate decodes the children's answers; a child that did not answer
// (or whose own aggregation is invalid) is stale and counted at its
// last-known value.
func (u *Upper) aggregate(p *cyclePlan) (power.Watts, bool) {
	u.cuts = u.cuts[:0]
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
			p.alert(AlertCritical,
				"aggregation invalid: %d/%d children unreachable", stale, len(u.list))
		}
		return 0, false
	}
	return total, true
}

// decide runs three-band control over the children's total and, for a
// cut, plans contracts punish-offender-first.
func (u *Upper) decide(now time.Duration, p *cyclePlan) {
	agg := p.rec.Agg
	u.recentAgg = append(u.recentAgg, agg)
	if len(u.recentAgg) > 3 {
		u.recentAgg = u.recentAgg[1:]
	}
	var smoothed power.Watts
	for _, v := range u.recentAgg {
		smoothed += v
	}
	smoothed /= power.Watts(len(u.recentAgg))

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
	p.rec.ServersPlanned, p.rec.Achieved, p.rec.Shortfall = len(cuts), achieved, shortfall
	p.planComputed = true
	if u.dryRun {
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
		u.cuts = append(u.cuts, childCut{child: st, contract: contract})
	}
	p.capCount = u.cappedCount()
	p.sendCaps = true
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

// sendContracts issues the planned contracts. Like every command
// completion it is gated on the controller generation (see Leaf.sendCaps).
func (u *Upper) sendContracts(now time.Duration) {
	gen := u.gen
	for _, c := range u.cuts {
		st := c.child
		if u.tel != nil {
			u.tel.contractIssued(u.cycles, now, st.id, c.contract)
		}
		req := &SetContractRequest{LimitWatts: float64(c.contract)}
		u.call(&st.pull, MethodCtrlSetContract, req, func(resp []byte, err error) {
			if u.gen != gen {
				return
			}
			var ack AckResponse
			if derr := rpc.Decode(resp, err, &ack); derr != nil || !ack.OK {
				u.commandFailed(&st.pull, "set contract", "contract", derr)
			}
		})
	}
}

// sendClearContracts releases all child contracts.
func (u *Upper) sendClearContracts() {
	gen := u.gen
	for _, st := range u.list {
		if !st.contracted {
			continue
		}
		u.call(&st.pull, MethodCtrlClearContract, rpc.Empty, func(resp []byte, err error) {
			if u.gen != gen {
				return
			}
			var ack AckResponse
			if derr := rpc.Decode(resp, err, &ack); derr != nil || !ack.OK {
				u.commandFailed(&st.pull, "clear contract", "clear contract", derr)
				return
			}
			st.contracted = false
			st.contract = 0
		})
	}
}
