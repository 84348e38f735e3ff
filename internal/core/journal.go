package core

import (
	"fmt"
	"time"

	"dynamo/internal/power"
)

// DecisionRecord captures one control cycle's inputs and outcome — the
// "detailed logging to inspect the control logic step-by-step" the paper
// relies on for service-aware testing (§VI).
type DecisionRecord struct {
	Cycle    uint64
	Time     time.Duration
	Agg      power.Watts
	Valid    bool
	Failures int
	// EffLimit is the effective (physical or contractual) limit used.
	EffLimit power.Watts
	Action   Action
	// Target is the planned power level for ActionCap.
	Target power.Watts
	// ServersPlanned is how many servers the capping plan touched.
	ServersPlanned int
	// Achieved/Shortfall echo the plan outcome.
	Achieved  power.Watts
	Shortfall power.Watts
	DryRun    bool
}

// String implements fmt.Stringer.
func (r DecisionRecord) String() string {
	switch r.Action {
	case ActionCap:
		return fmt.Sprintf("[%v] cycle %d agg=%v limit=%v -> cap %d servers to target %v (achieved %v, short %v, dryrun=%v)",
			r.Time, r.Cycle, r.Agg, r.EffLimit, r.ServersPlanned, r.Target, r.Achieved, r.Shortfall, r.DryRun)
	case ActionUncap:
		return fmt.Sprintf("[%v] cycle %d agg=%v limit=%v -> uncap", r.Time, r.Cycle, r.Agg, r.EffLimit)
	default:
		if !r.Valid {
			return fmt.Sprintf("[%v] cycle %d invalid aggregation (%d failures)", r.Time, r.Cycle, r.Failures)
		}
		return fmt.Sprintf("[%v] cycle %d agg=%v limit=%v -> none", r.Time, r.Cycle, r.Agg, r.EffLimit)
	}
}

// Journal is a bounded ring of decision records.
type Journal struct{ ring[DecisionRecord] }

// NewJournal creates a journal retaining the last n records.
func NewJournal(n int) *Journal {
	if n <= 0 {
		n = 256
	}
	return &Journal{newRing[DecisionRecord](n)}
}

// Add appends a record, evicting the oldest when full.
func (j *Journal) Add(r DecisionRecord) { j.add(r) }

// Absorb bulk-loads records (oldest-first) through the ring's normal
// eviction, used to hand a failed primary's journal to its promoted
// backup so the decision log survives the failover.
func (j *Journal) Absorb(recs []DecisionRecord) {
	for _, r := range recs {
		j.add(r)
	}
}

// Len returns the number of retained records.
func (j *Journal) Len() int { return len(j.buf) }

// Records returns retained records oldest-first.
func (j *Journal) Records() []DecisionRecord { return j.newest(0) }
