package core

import (
	"fmt"
	"testing"
	"time"

	"dynamo/internal/power"
	"dynamo/internal/server"
	"dynamo/internal/telemetry"
)

// ctrlCounter reads one of a controller's labeled counters.
func ctrlCounter(s *telemetry.Sink, name, device, level string) uint64 {
	return s.Counter(name, "device", device, "level", level).Value()
}

// eventKinds counts a controller's retained events by kind.
func eventKinds(k *cycleKernel) map[AlertKind]int {
	out := map[AlertKind]int{}
	for _, e := range k.tel.events.newest(0) {
		out[e.Kind]++
	}
	return out
}

// TestLeafTelemetryCapUncapEpisodes drives a leaf through a full capping
// episode (over limit → cap, load drop → uncap) and checks the episode
// counters, cycle-duration histogram, gauges, and the decision journal.
func TestLeafTelemetryCapUncapEpisodes(t *testing.T) {
	f := newFixture(t)
	sink := telemetry.NewSink()
	load := 0.8
	var refs []AgentRef
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("web-%03d", i)
		f.addServer(id, "web", server.LoadFunc(func(time.Duration) float64 { return load }))
		refs = append(refs, AgentRef{ServerID: id, Service: "web",
			Generation: "haswell2015", Client: f.dial(AgentAddr(id))})
	}
	leaf := NewLeaf(f.loop, LeafConfig{
		DeviceID: "rpp1", Limit: 2800, Alerts: f.alertSink(), Telemetry: sink,
	}, refs)
	leaf.Start()
	f.loop.RunUntil(30 * time.Second)

	if got := ctrlCounter(sink, "dynamo_controller_cycles_total", "rpp1", "leaf"); got == 0 {
		t.Fatal("cycles counter never incremented")
	}
	if got := ctrlCounter(sink, "dynamo_controller_cap_episodes_total", "rpp1", "leaf"); got < 1 {
		t.Errorf("cap episodes = %d, want >= 1", got)
	}
	h := sink.Histogram("dynamo_controller_cycle_duration_seconds", nil,
		"device", "rpp1", "level", "leaf")
	if h.Count() == 0 {
		t.Error("cycle duration histogram is empty")
	}
	if got := sink.Gauge("dynamo_controller_capped_servers", "device", "rpp1", "level", "leaf").Value(); got < 1 {
		t.Errorf("capped servers gauge = %v, want >= 1", got)
	}
	if agg := sink.Gauge("dynamo_controller_aggregate_watts", "device", "rpp1", "level", "leaf").Value(); agg <= 0 {
		t.Errorf("aggregate gauge = %v, want > 0", agg)
	}

	// Drop the load: the leaf must uncap and count an uncap episode.
	load = 0.2
	f.loop.RunUntil(150 * time.Second)
	if got := ctrlCounter(sink, "dynamo_controller_uncap_episodes_total", "rpp1", "leaf"); got < 1 {
		t.Errorf("uncap episodes = %d, want >= 1", got)
	}
	if got := leaf.UncapEvents(); got < 1 {
		t.Errorf("UncapEvents = %d, want >= 1", got)
	}

	// The journal carries the decision sequence: a planned cap, then an
	// uncap.
	sawPlan, sawUncap := false, false
	for _, r := range leaf.Journal().Records() {
		sawPlan = sawPlan || r.Action == ActionCap && r.ServersPlanned > 0
		sawUncap = sawUncap || sawPlan && r.Action == ActionUncap
	}
	if !sawPlan || !sawUncap {
		t.Errorf("journal: planned cap %v, uncap after it %v; want both", sawPlan, sawUncap)
	}

	// Status snapshot reflects the same story.
	st := leaf.Status(16)
	if st.Device != "rpp1" || st.Level != "leaf" {
		t.Errorf("status identity = %s/%s", st.Device, st.Level)
	}
	if st.CapEvents < 1 || st.UncapEvents < 1 {
		t.Errorf("status events = %d cap / %d uncap, want >= 1 each", st.CapEvents, st.UncapEvents)
	}
	if len(st.Decisions) == 0 {
		t.Error("status carries no decision records")
	}
	sawCap := false
	for _, d := range st.Decisions {
		if d.Action == "cap" {
			sawCap = true
		}
	}
	if len(st.Decisions) == 16 && !sawCap {
		// Only assert when the window is full; a cap decision may have
		// scrolled out of a partial window.
		t.Log("no cap decision in the last 16 records (uncapped steady state)")
	}
}

// TestLeafTelemetryInvalidAggregate partitions enough agents that the
// leaf's aggregation goes invalid, and checks the invalid-cycle counter,
// RPC failure counter, the journal and the event ring.
func TestLeafTelemetryInvalidAggregate(t *testing.T) {
	f := newFixture(t)
	sink := telemetry.NewSink()
	refs := f.addFleet(10, "web", 0.3)
	leaf := NewLeaf(f.loop, LeafConfig{
		DeviceID: "rpp1", Limit: power.KW(50), Alerts: f.alertSink(), Telemetry: sink,
	}, refs)
	leaf.Start()
	f.loop.RunUntil(10 * time.Second)
	if got := ctrlCounter(sink, "dynamo_controller_invalid_aggregate_cycles_total", "rpp1", "leaf"); got != 0 {
		t.Fatalf("invalid cycles = %d before partition, want 0", got)
	}

	// Partition 4 of 10 agents: 40% failures > the 20% default threshold.
	for i := 0; i < 4; i++ {
		f.partition(AgentAddr(fmt.Sprintf("web-%03d", i)))
	}
	f.loop.RunUntil(30 * time.Second)

	if got := ctrlCounter(sink, "dynamo_controller_invalid_aggregate_cycles_total", "rpp1", "leaf"); got == 0 {
		t.Error("invalid-aggregate cycles never counted")
	}
	if got := ctrlCounter(sink, "dynamo_controller_rpc_failures_total", "rpp1", "leaf"); got == 0 {
		t.Error("rpc failures never counted")
	}
	invalid := 0
	for _, r := range leaf.Journal().Records() {
		if !r.Valid && r.Failures == 4 {
			invalid++
		}
	}
	if invalid == 0 {
		t.Error("no invalid cycle with 4 failures in the journal")
	}
	if kinds := eventKinds(&leaf.cycleKernel); kinds[KindPullsFailed] == 0 || kinds[KindRPCFailed] == 0 {
		t.Errorf("event ring holds %v; want the invalid-aggregation alert and the failed pulls", kinds)
	}
	if got := ctrlCounter(sink, "dynamo_controller_alerts_total", "rpp1", "leaf"); got == 0 {
		// alerts_total carries an extra severity label; read it directly.
		if sink.Counter("dynamo_controller_alerts_total",
			"device", "rpp1", "level", "leaf", "severity", "critical").Value() == 0 {
			t.Error("critical alert counter never incremented")
		}
	}
}

// TestUpperTelemetryContractFlow drives an upper controller into issuing a
// contractual limit and back out, checking both the upper's and the
// leaf's instruments.
func TestUpperTelemetryContractFlow(t *testing.T) {
	f := newFixture(t)
	sink := telemetry.NewSink()
	load := 0.9
	var refs []AgentRef
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("c1-web-%03d", i)
		f.addServer(id, "web", server.LoadFunc(func(time.Duration) float64 { return load }))
		refs = append(refs, AgentRef{ServerID: id, Service: "web",
			Generation: "haswell2015", Client: f.dial(AgentAddr(id))})
	}
	leaf := NewLeaf(f.loop, LeafConfig{
		DeviceID: "c1", Limit: power.KW(200), Quota: 2500, Telemetry: sink,
	}, refs)
	f.net.Register(CtrlAddr("c1"), leaf.Handler())
	leaf.Start()
	upper := NewUpper(f.loop, UpperConfig{
		DeviceID: "sb1", Limit: 3000, OffenderBucket: 100, Telemetry: sink,
	}, []ChildRef{{ID: "c1", Client: f.dial(CtrlAddr("c1")), Quota: 2500}})
	upper.Start()

	f.loop.RunUntil(60 * time.Second)
	if len(upper.ContractedChildren()) == 0 {
		t.Fatal("expected contract under high load")
	}
	if got := ctrlCounter(sink, "dynamo_controller_cycles_total", "sb1", "upper"); got == 0 {
		t.Fatal("upper cycles never counted")
	}
	if got := ctrlCounter(sink, "dynamo_controller_cap_episodes_total", "sb1", "upper"); got < 1 {
		t.Errorf("upper cap episodes = %d, want >= 1", got)
	}
	if got := ctrlCounter(sink, "dynamo_controller_contract_changes_total", "sb1", "upper"); got < 1 {
		t.Errorf("upper contract changes = %d, want >= 1", got)
	}
	if got := ctrlCounter(sink, "dynamo_controller_contract_changes_total", "c1", "leaf"); got < 1 {
		t.Errorf("leaf contract changes = %d, want >= 1 (contract received)", got)
	}
	if n := eventKinds(&upper.cycleKernel)[KindContractIssued]; n == 0 {
		t.Error("no contract issued in the upper's event ring")
	}
	if n := eventKinds(&leaf.cycleKernel)[KindContractReceived]; n == 0 {
		t.Error("no contract received in the leaf's event ring")
	}
	h := sink.Histogram("dynamo_controller_cycle_duration_seconds", nil,
		"device", "sb1", "level", "upper")
	if h.Count() == 0 {
		t.Error("upper cycle duration histogram is empty")
	}

	load = 0.2
	f.loop.RunUntil(200 * time.Second)
	if got := ctrlCounter(sink, "dynamo_controller_uncap_episodes_total", "sb1", "upper"); got < 1 {
		t.Errorf("upper uncap episodes = %d, want >= 1", got)
	}
	st := upper.Status(8)
	if st.Level != "upper" || st.Device != "sb1" {
		t.Errorf("status identity = %s/%s", st.Device, st.Level)
	}
	if len(st.Decisions) == 0 {
		t.Error("upper status carries no decision records")
	}
}

// TestControllersWithNilSinkStayQuiet confirms the nil-sink path leaves
// no telemetry residue (the disabled path used by the simulator).
func TestControllersWithNilSinkStayQuiet(t *testing.T) {
	f := newFixture(t)
	refs := f.addFleet(5, "web", 0.8)
	leaf := NewLeaf(f.loop, LeafConfig{
		DeviceID: "rpp1", Limit: 1200, Alerts: f.alertSink(),
	}, refs)
	leaf.Start()
	f.loop.RunUntil(30 * time.Second)
	if leaf.CapEvents() == 0 {
		t.Fatal("expected capping in this scenario")
	}
	// Status still works without a sink.
	st := leaf.Status(4)
	if st.CapEvents == 0 || len(st.Decisions) == 0 {
		t.Error("status must work with telemetry disabled")
	}
}

// TestEventStormStaysInItsController partitions every agent of one leaf
// for more cycles than its event ring holds, with a sibling leaf on the
// same telemetry sink. The storm — each cycle ten failed pulls and an
// invalid-aggregation alert — wraps the stormed leaf's own ring, and
// nothing else: its journal still holds every cycle, and the sibling's
// events are exactly what they were before the storm.
func TestEventStormStaysInItsController(t *testing.T) {
	f := newFixture(t)
	sink := telemetry.NewSink()
	stormed := NewLeaf(f.loop, LeafConfig{
		DeviceID: "rpp-storm", Limit: power.KW(50), Alerts: f.alertSink(), Telemetry: sink,
	}, f.addFleet(10, "web", 0.5))
	sibling := NewLeaf(f.loop, LeafConfig{
		DeviceID: "rpp-sibling", Limit: power.KW(50), Alerts: f.alertSink(), Telemetry: sink,
	}, f.addFleet(10, "cache", 0.5))
	stormed.Start()
	sibling.Start()

	// The sibling records a few failed pulls of its own, then heals.
	f.partition(AgentAddr("cache-000"))
	f.loop.RunUntil(15 * time.Second)
	f.heal(AgentAddr("cache-000"))
	f.loop.RunUntil(30 * time.Second)
	before := sibling.tel.events.newest(0)
	if len(before) == 0 {
		t.Fatal("the sibling recorded no events before the storm")
	}

	for i := 0; i < 10; i++ {
		f.partition(AgentAddr(fmt.Sprintf("web-%03d", i)))
	}
	start := stormed.Cycles()
	f.loop.RunUntil(30*time.Second + (eventRingSize+10)*stormed.pollInterval)
	stormCycles := stormed.Cycles() - start
	if stormCycles <= eventRingSize {
		t.Fatalf("%d storm cycles, want more than the ring's %d", stormCycles, eventRingSize)
	}

	evs := stormed.tel.events.newest(0)
	if len(evs) != eventRingSize {
		t.Fatalf("stormed leaf's ring holds %d events, want it full at %d", len(evs), eventRingSize)
	}
	if last := evs[len(evs)-1]; last.Controller != "rpp-storm" || last.Cycle != stormed.Cycles() {
		t.Errorf("newest event %v is from cycle %d, want the last cycle %d", last, last.Cycle, stormed.Cycles())
	}
	recs := stormed.Journal().Records()
	if uint64(len(recs)) != stormed.Cycles() {
		t.Fatalf("journal holds %d records over %d cycles", len(recs), stormed.Cycles())
	}
	for i, r := range recs {
		if r.Cycle != uint64(i+1) {
			t.Fatalf("journal record %d is cycle %d: the journal has a gap", i, r.Cycle)
		}
		// The cycle open at the partition pulled before it.
		if r.Cycle > start+1 && (r.Valid || r.Failures != 10) {
			t.Fatalf("storm cycle %d recorded valid=%v failures=%d, want invalid with 10", r.Cycle, r.Valid, r.Failures)
		}
	}

	after := sibling.tel.events.newest(0)
	if len(after) != len(before) {
		t.Fatalf("sibling's ring went from %d to %d events during the storm", len(before), len(after))
	}
	for i := range after {
		if after[i] != before[i] {
			t.Fatalf("sibling's event %d changed during the storm: %v, was %v", i, after[i], before[i])
		}
	}
	if st := sibling.Status(0); len(st.Events) != len(before) || st.Events[0] != before[0].String() {
		t.Errorf("sibling's status events %q do not render its ring", st.Events)
	}
}
