package core

import (
	"fmt"
	"time"

	"dynamo/internal/power"
)

// AlertLevel classifies controller alerts.
type AlertLevel int

const (
	// AlertInfo is informational (e.g. dry-run plan reports).
	AlertInfo AlertLevel = iota
	// AlertWarning indicates degraded operation (estimated readings,
	// validation drift).
	AlertWarning
	// AlertCritical requires human intervention (invalid aggregation,
	// unsatisfiable power cut, failover).
	AlertCritical
)

// String implements fmt.Stringer.
func (l AlertLevel) String() string {
	switch l {
	case AlertInfo:
		return "info"
	case AlertWarning:
		return "warning"
	case AlertCritical:
		return "critical"
	default:
		return fmt.Sprintf("AlertLevel(%d)", int(l))
	}
}

// AlertKind says what an Alert reports. It fixes the alert's level, which
// of its fields are set, and how it reads. The comment on each kind names
// the fields it sets.
type AlertKind uint8

const (
	_ AlertKind = iota
	// KindQuarantined: the leaf quarantined agent Peer after Count
	// consecutive failed pulls.
	KindQuarantined
	// KindReadmitted: a half-open probe re-admitted agent Peer.
	KindReadmitted
	// KindRestarting: the leaf restarts agent Peer, which is quarantined.
	KindRestarting
	// KindPullsFailed: Count of the leaf's Of pulls failed, too many to
	// aggregate.
	KindPullsFailed
	// KindChildrenStale: Count of the upper's Of children are unreachable,
	// too many to aggregate.
	KindChildrenStale
	// KindBreakerMismatch: the aggregate Watts disagrees with the
	// breaker's own reading Ref.
	KindBreakerMismatch
	// KindShortfall: the capping plan falls Watts short (SLA floors).
	KindShortfall
	// KindDryRunCap: a dry run would cap Count servers for a Watts cut.
	KindDryRunCap
	// KindDryRunUncap: a dry run would uncap Count servers.
	KindDryRunUncap
	// KindDryRunContract: a dry run would contract Count children.
	KindDryRunContract
	// KindCommandFailed: child Peer did not accept command Op.
	KindCommandFailed
	// KindCheckpointFenced: an adoption superseded stream epoch Epoch, so
	// the controller stops.
	KindCheckpointFenced
	// KindCheckpointFailed: a checkpoint append failed with Err.
	KindCheckpointFailed
	// KindPromoted: the backup took over after Count missed probes,
	// adopting Of journal records from the store at epoch Epoch.
	KindPromoted
	// KindPromotedFresh: the backup took over after Count missed probes,
	// with no state to adopt.
	KindPromotedFresh
	// KindLeaseExpired: an agent's cap lease expired, releasing its Watts
	// cap.
	KindLeaseExpired

	// The kinds below are not alerts: a controller records them in its
	// event ring, and only while a telemetry sink is attached.

	// KindRPCFailed: call Op to Peer failed with Err.
	KindRPCFailed
	// KindRetry: attempt Count of call Op to Peer, after Err.
	KindRetry
	// KindContractIssued: a contract of Watts sent to child Peer.
	KindContractIssued
	// KindContractReceived: a contract of Watts from the parent; 0 clears
	// it.
	KindContractReceived
)

// kindLevels gives each kind its level.
var kindLevels = [...]AlertLevel{
	KindQuarantined:      AlertWarning,
	KindReadmitted:       AlertInfo,
	KindRestarting:       AlertWarning,
	KindPullsFailed:      AlertCritical,
	KindChildrenStale:    AlertCritical,
	KindBreakerMismatch:  AlertWarning,
	KindShortfall:        AlertCritical,
	KindDryRunCap:        AlertInfo,
	KindDryRunUncap:      AlertInfo,
	KindDryRunContract:   AlertInfo,
	KindCommandFailed:    AlertWarning,
	KindCheckpointFenced: AlertCritical,
	KindCheckpointFailed: AlertWarning,
	KindPromoted:         AlertCritical,
	KindPromotedFresh:    AlertCritical,
	KindLeaseExpired:     AlertWarning,
	KindRPCFailed:        AlertWarning,
	KindRetry:            AlertInfo,
	KindContractIssued:   AlertInfo,
	KindContractReceived: AlertInfo,
}

// Level returns the level every alert of this kind carries.
func (k AlertKind) Level() AlertLevel {
	if int(k) < len(kindLevels) {
		return kindLevels[k]
	}
	return AlertCritical
}

// Alert is what a controller reports: an operator alert, or one of the
// events its event ring records. The paper leans on alerting rather than
// guessing when data is unsafe to act on ("send an alarm for a human
// operator to intervene", §III-E). An Alert is a value of typed fields;
// its text is built only when something reads it (String, Message).
type Alert struct {
	Time       time.Duration
	Cycle      uint64 // the controller's cycle count when it was raised
	Kind       AlertKind
	Level      AlertLevel
	Controller string
	Peer       string // the agent or child controller it is about
	Op         string // the call or command it is about
	Count, Of  int
	Watts, Ref power.Watts
	Epoch      uint64 // a state-store stream epoch
	Err        error
}

// String implements fmt.Stringer.
func (a Alert) String() string {
	return fmt.Sprintf("[%v] %s %s: %s", a.Time, a.Level, a.Controller, a.Message())
}

// Message renders what the alert says, without its time, level and
// controller.
func (a Alert) Message() string {
	switch a.Kind {
	case KindQuarantined:
		return fmt.Sprintf("agent %s quarantined after %d consecutive failed pulls; estimating until a probe succeeds", a.Peer, a.Count)
	case KindReadmitted:
		return fmt.Sprintf("agent %s re-admitted after successful probe", a.Peer)
	case KindRestarting:
		return fmt.Sprintf("agent %s quarantined; restarting it", a.Peer)
	case KindPullsFailed:
		frac := 0.0
		if a.Of > 0 {
			frac = float64(a.Count) / float64(a.Of)
		}
		return fmt.Sprintf("power aggregation invalid: %d/%d pulls failed (%.0f%% > %.0f%%)",
			a.Count, a.Of, frac*100, maxFailureFrac*100)
	case KindChildrenStale:
		return fmt.Sprintf("aggregation invalid: %d/%d children unreachable", a.Count, a.Of)
	case KindBreakerMismatch:
		diff := float64(a.Watts-a.Ref) / float64(a.Ref)
		if diff < 0 {
			diff = -diff
		}
		return fmt.Sprintf("aggregation %v disagrees with breaker reading %v by %.1f%%", a.Watts, a.Ref, diff*100)
	case KindShortfall:
		return fmt.Sprintf("capping plan short by %v (SLA floors reached)", a.Watts)
	case KindDryRunCap:
		return fmt.Sprintf("dry-run: would cap %d servers for %v total cut", a.Count, a.Watts)
	case KindDryRunUncap:
		return fmt.Sprintf("dry-run: would uncap %d servers", a.Count)
	case KindDryRunContract:
		return fmt.Sprintf("dry-run: would contract %d children", a.Count)
	case KindCommandFailed:
		return fmt.Sprintf("%s to %s failed", a.Op, a.Peer)
	case KindCheckpointFenced:
		return fmt.Sprintf("checkpoint fenced (stream epoch %d superseded by adoption); stopping zombie controller", a.Epoch)
	case KindCheckpointFailed:
		return fmt.Sprintf("checkpoint append failed: %v", a.Err)
	case KindPromoted:
		return fmt.Sprintf("primary controller unresponsive for %d probes; backup promoted (%d journal records adopted from state store, epoch %d)",
			a.Count, a.Of, a.Epoch)
	case KindPromotedFresh:
		return fmt.Sprintf("primary controller unresponsive for %d probes; backup promoted with fresh state (no store)", a.Count)
	case KindLeaseExpired:
		return fmt.Sprintf("cap lease expired; released %.0fW limit", float64(a.Watts))
	case KindRPCFailed:
		return fmt.Sprintf("%s to %s: %v", a.Op, a.Peer, a.Err)
	case KindRetry:
		return fmt.Sprintf("retry %d of %s to %s after %v", a.Count, a.Op, a.Peer, a.Err)
	case KindContractIssued:
		return fmt.Sprintf("contract issued to %s: %v", a.Peer, a.Watts)
	case KindContractReceived:
		if a.Watts > 0 {
			return fmt.Sprintf("contract received: %v", a.Watts)
		}
		return "contract cleared"
	default:
		return fmt.Sprintf("alert kind %d", a.Kind)
	}
}

// AlertFunc receives alerts; nil sinks are permitted everywhere.
type AlertFunc func(Alert)

// emit hands a to f, at its kind's level.
func (f AlertFunc) emit(a Alert) {
	if f != nil {
		a.Level = a.Kind.Level()
		f(a)
	}
}
