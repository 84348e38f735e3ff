package core

import (
	"slices"
	"strings"
	"testing"
	"time"

	"dynamo/internal/power"
)

func TestJournalRing(t *testing.T) {
	j := NewJournal(3)
	for i := uint64(1); i <= 5; i++ {
		j.Add(DecisionRecord{Cycle: i})
	}
	recs := j.Records()
	if len(recs) != 3 {
		t.Fatalf("len = %d", len(recs))
	}
	if recs[0].Cycle != 3 || recs[2].Cycle != 5 {
		t.Errorf("ring order wrong: %+v", recs)
	}
	if j.Len() != 3 {
		t.Errorf("Len = %d", j.Len())
	}
}

// TestRingEvictionAndOrder: the ring under the journal and the event ring
// keeps the newest values, hands them out oldest-first, and trims a read
// to the newest n.
func TestRingEvictionAndOrder(t *testing.T) {
	r := newRing[int](4)
	if got := r.newest(0); len(got) != 0 {
		t.Fatalf("empty ring reads %v", got)
	}
	for i := 1; i <= 6; i++ {
		r.add(i)
	}
	if got := r.newest(0); !slices.Equal(got, []int{3, 4, 5, 6}) {
		t.Errorf("newest(0) = %v, want [3 4 5 6]", got)
	}
	if got := r.newest(2); !slices.Equal(got, []int{5, 6}) {
		t.Errorf("newest(2) = %v, want [5 6]", got)
	}
	if got := r.newest(9); len(got) != 4 {
		t.Errorf("newest(9) = %v, want all 4", got)
	}
}

func TestJournalDefaultCap(t *testing.T) {
	j := NewJournal(0)
	for i := 0; i < 300; i++ {
		j.Add(DecisionRecord{Cycle: uint64(i)})
	}
	if j.Len() != 256 {
		t.Errorf("default cap = %d", j.Len())
	}
}

// lastAction returns the journal's most recent record whose action is not
// ActionNone; ok is false if there is none.
func lastAction(j *Journal) (DecisionRecord, bool) {
	recs := j.Records()
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].Action != ActionNone {
			return recs[i], true
		}
	}
	return DecisionRecord{}, false
}

func TestJournalLastAction(t *testing.T) {
	j := NewJournal(10)
	if _, ok := lastAction(j); ok {
		t.Fatal("empty journal has no action")
	}
	j.Add(DecisionRecord{Cycle: 1, Action: ActionNone})
	j.Add(DecisionRecord{Cycle: 2, Action: ActionCap, Target: 100})
	j.Add(DecisionRecord{Cycle: 3, Action: ActionNone})
	rec, ok := lastAction(j)
	if !ok || rec.Cycle != 2 {
		t.Errorf("last action = %+v, %v", rec, ok)
	}
}

func TestDecisionRecordStrings(t *testing.T) {
	cases := []struct {
		rec  DecisionRecord
		want string
	}{
		{DecisionRecord{Action: ActionCap, ServersPlanned: 4}, "cap 4 servers"},
		{DecisionRecord{Action: ActionUncap, Valid: true}, "uncap"},
		{DecisionRecord{Action: ActionNone, Valid: true}, "none"},
		{DecisionRecord{Valid: false, Failures: 7}, "invalid aggregation (7 failures)"},
	}
	for _, c := range cases {
		if got := c.rec.String(); !strings.Contains(got, c.want) {
			t.Errorf("%q does not contain %q", got, c.want)
		}
	}
}

// TestLeafJournalRecordsCappingEvent drives a leaf through a cap/uncap
// cycle and inspects the decision log, the way dry-run testing inspects
// control logic step by step.
func TestLeafJournalRecordsCappingEvent(t *testing.T) {
	f := newFixture(t)
	load := 0.9
	loadPtr := &load
	var refs []AgentRef
	for i := 0; i < 6; i++ {
		id := "j" + string(rune('0'+i))
		f.addServer(id, "web", serverLoadFn(loadPtr))
		refs = append(refs, AgentRef{ServerID: id, Service: "web",
			Client: f.dial(AgentAddr(id))})
	}
	leaf := NewLeaf(f.loop, LeafConfig{DeviceID: "rppj", Limit: 1800}, refs)
	leaf.Start()
	f.loop.RunUntil(time.Minute)

	rec, ok := lastAction(leaf.Journal())
	if !ok || rec.Action != ActionCap {
		t.Fatalf("expected a cap record, got %+v (%v)", rec, ok)
	}
	if rec.ServersPlanned == 0 || rec.Achieved <= 0 {
		t.Errorf("plan fields empty: %+v", rec)
	}
	if rec.EffLimit != 1800 {
		t.Errorf("eff limit = %v", rec.EffLimit)
	}
	if rec.Target >= power.Watts(1800) {
		t.Errorf("target %v not below limit", rec.Target)
	}

	load = 0.2
	f.loop.RunUntil(3 * time.Minute)
	rec, _ = lastAction(leaf.Journal())
	if rec.Action != ActionUncap {
		t.Errorf("expected final uncap record, got %+v", rec)
	}
	// Every record is well-formed.
	for _, r := range leaf.Journal().Records() {
		if r.Valid && r.Agg <= 0 {
			t.Errorf("valid record with zero aggregate: %+v", r)
		}
	}
}
