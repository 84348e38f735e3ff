package core

import (
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

func TestJournalDefaultCap(t *testing.T) {
	j := NewJournal(0)
	for i := 0; i < 300; i++ {
		j.Add(DecisionRecord{Cycle: uint64(i)})
	}
	if j.Len() != 256 {
		t.Errorf("default cap = %d", j.Len())
	}
}

func TestJournalLastAction(t *testing.T) {
	j := NewJournal(10)
	if _, ok := j.LastAction(); ok {
		t.Fatal("empty journal has no action")
	}
	j.Add(DecisionRecord{Cycle: 1, Action: ActionNone})
	j.Add(DecisionRecord{Cycle: 2, Action: ActionCap, Target: 100})
	j.Add(DecisionRecord{Cycle: 3, Action: ActionNone})
	rec, ok := j.LastAction()
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
			Generation: "haswell2015", Client: f.dial(AgentAddr(id))})
	}
	leaf := NewLeaf(f.loop, LeafConfig{DeviceID: "rppj", Limit: 1800}, refs)
	leaf.Start()
	f.loop.RunUntil(time.Minute)

	rec, ok := leaf.Journal().LastAction()
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
	rec, _ = leaf.Journal().LastAction()
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
