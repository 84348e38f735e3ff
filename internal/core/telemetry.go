package core

import (
	"time"

	"dynamo/internal/power"
	"dynamo/internal/telemetry"
)

// ctrlInstr holds a controller's telemetry instruments. All handles are
// fetched once at construction; the per-cycle path is atomic increments
// and gauge stores only. A nil *ctrlInstr disables instrumentation — every
// call site guards with `if tel != nil`, so the deterministic simulation
// path (nil sink) performs no telemetry work at all.
type ctrlInstr struct {
	device string
	events ring[Alert] // alerts and the other events, newest last

	cycles          *telemetry.Counter
	invalid         *telemetry.Counter
	capEpisodes     *telemetry.Counter
	uncapEpisodes   *telemetry.Counter
	rpcFailures     *telemetry.Counter
	rpcRetries      *telemetry.Counter
	quarEvents      *telemetry.Counter
	quarReadmits    *telemetry.Counter
	planShortfalls  *telemetry.Counter
	contractChanges *telemetry.Counter
	alertCounts     [3]*telemetry.Counter // indexed by AlertLevel

	agg         *telemetry.Gauge
	effLimit    *telemetry.Gauge
	capped      *telemetry.Gauge
	quarantined *telemetry.Gauge

	cycleDur   *telemetry.Histogram
	observeDur *telemetry.Histogram
}

// newCtrlInstr registers one controller's instruments. level is "leaf" or
// "upper"; for an upper controller the capped gauge counts contracted
// children rather than capped servers.
func newCtrlInstr(sink *telemetry.Sink, device, level string) *ctrlInstr {
	if !sink.Enabled() {
		return nil
	}
	lb := []string{"device", device, "level", level}
	in := &ctrlInstr{
		device:          device,
		events:          newRing[Alert](eventRingSize),
		cycles:          sink.Counter("dynamo_controller_cycles_total", lb...),
		invalid:         sink.Counter("dynamo_controller_invalid_aggregate_cycles_total", lb...),
		capEpisodes:     sink.Counter("dynamo_controller_cap_episodes_total", lb...),
		uncapEpisodes:   sink.Counter("dynamo_controller_uncap_episodes_total", lb...),
		rpcFailures:     sink.Counter("dynamo_controller_rpc_failures_total", lb...),
		rpcRetries:      sink.Counter("dynamo_controller_rpc_retries_total", lb...),
		quarEvents:      sink.Counter("dynamo_controller_quarantine_events_total", lb...),
		quarReadmits:    sink.Counter("dynamo_controller_quarantine_readmissions_total", lb...),
		planShortfalls:  sink.Counter("dynamo_controller_plan_shortfalls_total", lb...),
		contractChanges: sink.Counter("dynamo_controller_contract_changes_total", lb...),
		agg:             sink.Gauge("dynamo_controller_aggregate_watts", lb...),
		effLimit:        sink.Gauge("dynamo_controller_effective_limit_watts", lb...),
		capped:          sink.Gauge("dynamo_controller_capped_servers", lb...),
		quarantined:     sink.Gauge("dynamo_controller_quarantined_agents", lb...),
		cycleDur:        sink.Histogram("dynamo_controller_cycle_duration_seconds", nil, lb...),
		observeDur:      sink.Histogram("dynamo_controller_observe_phase_seconds", PhaseBuckets, lb...),
	}
	for _, lvl := range []AlertLevel{AlertInfo, AlertWarning, AlertCritical} {
		in.alertCounts[lvl] = sink.Counter("dynamo_controller_alerts_total",
			"device", device, "level", level, "severity", lvl.String())
	}
	return in
}

// eventRingSize is how many events a controller with telemetry keeps: a
// few cycles of a whole rack failing its pulls and retries.
const eventRingSize = 256

// wrapAlerts chains alert accounting (counter + event ring) ahead of the
// user-provided alert sink. Safe on a nil receiver.
func (in *ctrlInstr) wrapAlerts(user AlertFunc) AlertFunc {
	if in == nil {
		return user
	}
	return func(a Alert) {
		lvl := a.Level
		if lvl < AlertInfo || lvl > AlertCritical {
			lvl = AlertCritical
		}
		in.alertCounts[lvl].Inc()
		in.events.add(a)
		if user != nil {
			user(a)
		}
	}
}

// event records one event that is not an alert in the event ring.
func (in *ctrlInstr) event(now time.Duration, cycle uint64, a Alert) {
	a.Time, a.Cycle, a.Level, a.Controller = now, cycle, a.Kind.Level(), in.device
	in.events.add(a)
}

// recentEvents renders the newest n events (n <= 0: all), oldest-first.
func (in *ctrlInstr) recentEvents(n int) []string {
	evs := in.events.newest(n)
	out := make([]string, len(evs))
	for i, e := range evs {
		out[i] = e.String()
	}
	return out
}

// cycleEnd records one completed, valid cycle: duration histogram and
// gauges.
func (in *ctrlInstr) cycleEnd(start, now time.Duration, agg, effLimit power.Watts, capped int) {
	in.cycles.Inc()
	in.cycleDur.Observe((now - start).Seconds())
	in.agg.Set(float64(agg))
	in.effLimit.Set(float64(effLimit))
	in.capped.Set(float64(capped))
}

// invalidCycle records a cycle whose aggregation was declared invalid.
func (in *ctrlInstr) invalidCycle(start, now time.Duration) {
	in.cycles.Inc()
	in.invalid.Inc()
	in.cycleDur.Observe((now - start).Seconds())
}

// observeDone records the wall-clock duration of one observe+decide phase
// for this device. Deferred at the top of runObserveDecide, so it measures
// the per-device compute cost whether the phase ran inline on the loop or
// on a cohort worker.
func (in *ctrlInstr) observeDone(start time.Time) {
	//lint:allow wallclock — converts the wall-clock phase start into an operator histogram sample; callers pass time.Now() only under a tel nil-check
	in.observeDur.Observe(time.Since(start).Seconds())
}

// decided counts a valid cycle's decision: a band change into cap or
// uncap starts an episode, and a plan short of its cut is a shortfall.
func (in *ctrlInstr) decided(p *cyclePlan) {
	if p.rec.Action != p.prevAction {
		switch p.rec.Action {
		case ActionCap:
			in.capEpisodes.Inc()
		case ActionUncap:
			in.uncapEpisodes.Inc()
		}
	}
	if p.planComputed && p.rec.Shortfall > 0 {
		in.planShortfalls.Inc()
	}
}

// contractReceived records a contractual-limit change imposed by a parent.
func (in *ctrlInstr) contractReceived(now time.Duration, cycle uint64, limit power.Watts) {
	in.contractChanges.Inc()
	in.event(now, cycle, Alert{Kind: KindContractReceived, Watts: limit})
}

// contractIssued records a contractual limit sent to a child controller.
func (in *ctrlInstr) contractIssued(now time.Duration, cycle uint64, child string, limit power.Watts) {
	in.contractChanges.Inc()
	in.event(now, cycle, Alert{Kind: KindContractIssued, Peer: child, Watts: limit})
}

// rpcFailure records a failed downstream call.
func (in *ctrlInstr) rpcFailure(now time.Duration, cycle uint64, peer, op string, err error) {
	in.rpcFailures.Inc()
	in.event(now, cycle, Alert{Kind: KindRPCFailed, Peer: peer, Op: op, Err: err})
}

// rpcRetry records one re-attempt of a downstream call.
func (in *ctrlInstr) rpcRetry(now time.Duration, cycle uint64, peer, op string, attempt int, err error) {
	in.rpcRetries.Inc()
	in.event(now, cycle, Alert{Kind: KindRetry, Peer: peer, Op: op, Count: attempt, Err: err})
}

// quarantine updates the circuit-breaker instruments after a cycle:
// newly tripped breakers, re-admissions, and the active quarantine set.
func (in *ctrlInstr) quarantine(entered, readmitted, active int) {
	if entered > 0 {
		in.quarEvents.Add(uint64(entered))
	}
	if readmitted > 0 {
		in.quarReadmits.Add(uint64(readmitted))
	}
	in.quarantined.Set(float64(active))
}
