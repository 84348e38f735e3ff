package core

import (
	"fmt"
	"testing"
	"time"

	"dynamo/internal/power"
	"dynamo/internal/server"
	"dynamo/internal/telemetry"
)

// leafCounter reads one of the leaf controller's labeled counters.
func ctrlCounter(s *telemetry.Sink, name, device, level string) uint64 {
	return s.Counter(name, "device", device, "level", level).Value()
}

// TestLeafTelemetryCapUncapEpisodes drives a leaf through a full capping
// episode (over limit → cap, load drop → uncap) and checks the episode
// counters, cycle-duration histogram, gauges, and decision trace events.
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

	// The trace ring must carry the decision sequence.
	for _, typ := range []telemetry.EventType{
		telemetry.EventCycleStart, telemetry.EventCycleEnd,
		telemetry.EventBandTransition, telemetry.EventCapPlan,
	} {
		if len(sink.Trace().OfType(typ, 0)) == 0 {
			t.Errorf("no %s events in trace ring", typ)
		}
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
// RPC failure counter, and trace events.
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
	if len(sink.Trace().OfType(telemetry.EventAggregateInvalid, 0)) == 0 {
		t.Error("no aggregate_invalid events in trace ring")
	}
	if len(sink.Trace().OfType(telemetry.EventAlert, 0)) == 0 {
		t.Error("invalid aggregation should raise an alert event")
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
	if len(sink.Trace().OfType(telemetry.EventContract, 0)) == 0 {
		t.Error("no contract events in trace ring")
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
