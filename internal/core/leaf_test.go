package core

import (
	"fmt"
	"testing"
	"time"

	"dynamo/internal/agent"
	"dynamo/internal/faults"
	"dynamo/internal/platform"
	"dynamo/internal/power"
	"dynamo/internal/rpc"
	"dynamo/internal/server"
	"dynamo/internal/simclock"
)

// fixture builds a small in-process fleet: simulated servers ticked every
// second on the loop, agents registered on an in-proc network that every
// controller-side client dials through a fault injector.
type fixture struct {
	t       *testing.T
	loop    *simclock.SimLoop
	net     *rpc.Network
	faults  *faults.Injector
	servers map[string]*server.Server
	agents  map[string]*agent.Agent
	order   []string
	alerts  []Alert
	ticker  *simclock.Ticker
	// seedBase offsets the per-server sensor-noise seeds.
	seedBase int64
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	loop := simclock.NewSimLoop()
	loop.SetStepLimit(5_000_000)
	f := &fixture{
		t:       t,
		loop:    loop,
		net:     rpc.NewNetwork(loop, 2*time.Millisecond, 99),
		faults:  faults.New(loop, 99, nil),
		servers: map[string]*server.Server{},
		agents:  map[string]*agent.Agent{},
	}
	f.ticker = simclock.NewTicker(loop, time.Second, func() {
		for _, id := range f.order {
			f.servers[id].Tick(loop.Now())
		}
	})
	f.ticker.Start()
	return f
}

// dial is the network's Dial behind the fixture's fault injector.
func (f *fixture) dial(addr string) rpc.Client {
	return f.faults.WrapClient(addr, f.net.Dial(addr))
}

// partition makes every call to addr from now on hang until its deadline;
// heal ends it.
func (f *fixture) partition(addr string) {
	f.faults.Add(faults.Partition(addr, f.loop.Now(), 0))
}

func (f *fixture) heal(addr string) { f.faults.Heal(addr) }

// crash takes a server's agent process down: calls to it are refused at
// once, until restart brings it back.
func (f *fixture) crash(id string) { f.net.Unregister(AgentAddr(id)) }

func (f *fixture) restart(id string) { f.net.Register(AgentAddr(id), f.agents[id].Handler()) }

func (f *fixture) alertSink() AlertFunc {
	return func(a Alert) { f.alerts = append(f.alerts, a) }
}

func (f *fixture) addServer(id, service string, source server.LoadSource) *server.Server {
	srv := server.New(server.Config{
		ID: id, Service: service,
		Model:  server.MustModel("haswell2015"),
		Source: source,
	})
	srv.Tick(f.loop.Now())
	f.servers[id] = srv
	f.order = append(f.order, id)
	plat := platform.NewMSR(srv, platform.Options{Seed: f.seedBase + int64(len(f.order))})
	ag := agent.New(id, service, "haswell2015", plat)
	f.agents[id] = ag
	f.net.Register(AgentAddr(id), ag.Handler())
	return srv
}

func (f *fixture) addFleet(n int, service string, load float64) []AgentRef {
	var refs []AgentRef
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("%s-%03d", service, i)
		f.addServer(id, service, server.LoadFunc(func(time.Duration) float64 { return load }))
		refs = append(refs, AgentRef{ServerID: id, Service: service, Generation: "haswell2015", Client: f.dial(AgentAddr(id))})
	}
	return refs
}

func (f *fixture) refs() []AgentRef {
	var refs []AgentRef
	for _, id := range f.order {
		refs = append(refs, AgentRef{ServerID: id, Service: f.servers[id].Service(), Generation: "haswell2015", Client: f.dial(AgentAddr(id))})
	}
	return refs
}

func (f *fixture) totalPower() power.Watts {
	var sum power.Watts
	for _, s := range f.servers {
		sum += s.Power()
	}
	return sum
}

func TestLeafAggregationMatchesTruth(t *testing.T) {
	f := newFixture(t)
	refs := f.addFleet(20, "web", 0.6)
	leaf := NewLeaf(f.loop, LeafConfig{
		DeviceID: "rpp1", Limit: power.KW(50), Alerts: f.alertSink(),
	}, refs)
	leaf.Start()
	f.loop.RunUntil(10 * time.Second)
	agg, valid := leaf.LastAggregate()
	if !valid {
		t.Fatal("aggregation should be valid")
	}
	truth := f.totalPower()
	rel := float64(agg-truth) / float64(truth)
	if rel < -0.05 || rel > 0.05 {
		t.Errorf("aggregate %v vs truth %v (%.1f%%)", agg, truth, rel*100)
	}
	if leaf.Cycles() < 2 {
		t.Errorf("cycles = %d", leaf.Cycles())
	}
}

func TestLeafCapsOverLimit(t *testing.T) {
	f := newFixture(t)
	// 10 servers at ~295 W each ≈ 2950 W; limit 2800 W forces capping.
	refs := f.addFleet(10, "web", 0.8)
	limit := power.Watts(2800)
	leaf := NewLeaf(f.loop, LeafConfig{
		DeviceID: "rpp1", Limit: limit, Alerts: f.alertSink(),
	}, refs)
	leaf.Start()
	f.loop.RunUntil(60 * time.Second)

	agg, valid := leaf.LastAggregate()
	if !valid {
		t.Fatal("invalid aggregation")
	}
	threshold := power.Watts(float64(limit) * 0.99)
	if agg > threshold {
		t.Errorf("aggregate %v still above cap threshold %v", agg, threshold)
	}
	if leaf.CappedCount() == 0 {
		t.Error("expected capped servers")
	}
	if leaf.CapEvents() == 0 {
		t.Error("expected cap events")
	}
	// Power should settle near the cap target (within a band).
	target := power.Watts(float64(limit) * 0.95)
	if float64(agg) < float64(target)*0.90 {
		t.Errorf("aggregate %v overshot far below target %v", agg, target)
	}
}

func TestLeafCapSettlesWithinPaperBudget(t *testing.T) {
	// Paper §II-C: the system must cap within 2 minutes; Dynamo targets
	// ~10 s for action + settling. Verify the aggregate is under the
	// threshold within 15 s of the breach.
	f := newFixture(t)
	load := 0.5
	loadPtr := &load
	var refs []AgentRef
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("web-%03d", i)
		f.addServer(id, "web", server.LoadFunc(func(time.Duration) float64 { return *loadPtr }))
		refs = append(refs, AgentRef{ServerID: id, Service: "web", Generation: "haswell2015", Client: f.dial(AgentAddr(id))})
	}
	limit := power.Watts(2800)
	leaf := NewLeaf(f.loop, LeafConfig{DeviceID: "rpp1", Limit: limit}, refs)
	leaf.Start()
	f.loop.RunUntil(30 * time.Second) // settle under limit at load 0.5
	load = 1.0                        // surge
	f.loop.RunUntil(45 * time.Second)
	agg, _ := leaf.LastAggregate()
	if agg > power.Watts(float64(limit)*0.99) {
		t.Errorf("15 s after surge, aggregate %v still above threshold", agg)
	}
}

func TestLeafUncapsAfterLoadDrops(t *testing.T) {
	f := newFixture(t)
	load := 1.0
	loadPtr := &load
	var refs []AgentRef
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("web-%03d", i)
		f.addServer(id, "web", server.LoadFunc(func(time.Duration) float64 { return *loadPtr }))
		refs = append(refs, AgentRef{ServerID: id, Service: "web", Generation: "haswell2015", Client: f.dial(AgentAddr(id))})
	}
	limit := power.Watts(2800)
	leaf := NewLeaf(f.loop, LeafConfig{DeviceID: "rpp1", Limit: limit}, refs)
	leaf.Start()
	f.loop.RunUntil(60 * time.Second)
	if leaf.CappedCount() == 0 {
		t.Fatal("expected caps under full load")
	}
	load = 0.2 // traffic drains; power falls below the uncap threshold
	f.loop.RunUntil(120 * time.Second)
	if got := leaf.CappedCount(); got != 0 {
		t.Errorf("capped count after load drop = %d, want 0", got)
	}
	for _, id := range f.order {
		if _, capped := f.servers[id].Limit(); capped {
			t.Errorf("server %s still capped", id)
		}
	}
}

// TestLeafNoOscillation verifies the three-band hysteresis: once capped to
// the target, the controller neither uncaps nor re-caps while power sits
// between the uncap threshold and the cap threshold.
func TestLeafNoOscillation(t *testing.T) {
	f := newFixture(t)
	refs := f.addFleet(10, "web", 0.8)
	leaf := NewLeaf(f.loop, LeafConfig{DeviceID: "rpp1", Limit: 2800}, refs)
	leaf.Start()
	f.loop.RunUntil(300 * time.Second)
	if leaf.CapEvents() > 6 {
		t.Errorf("cap events = %d; three-band algorithm should not flap", leaf.CapEvents())
	}
	if leaf.CappedCount() == 0 {
		t.Error("caps should persist under sustained load")
	}
}

func TestLeafRespectsPriorities(t *testing.T) {
	f := newFixture(t)
	var refs []AgentRef
	refs = append(refs, f.addFleet(6, "web", 0.85)...)
	refs = append(refs, f.addFleet(4, "cache", 0.85)...)
	leaf := NewLeaf(f.loop, LeafConfig{DeviceID: "rpp1", Limit: 2800}, refs)
	leaf.Start()
	f.loop.RunUntil(60 * time.Second)
	if leaf.CappedCount() == 0 {
		t.Fatal("expected capping")
	}
	for _, id := range f.order {
		if _, capped := f.servers[id].Limit(); capped && id[:5] == "cache" {
			t.Errorf("cache server %s was capped before web exhausted", id)
		}
	}
}

func TestLeafServiceBreakdown(t *testing.T) {
	f := newFixture(t)
	var refs []AgentRef
	refs = append(refs, f.addFleet(5, "web", 0.6)...)
	refs = append(refs, f.addFleet(5, "cache", 0.6)...)
	leaf := NewLeaf(f.loop, LeafConfig{DeviceID: "rpp1", Limit: power.KW(50)}, refs)
	leaf.Start()
	f.loop.RunUntil(10 * time.Second)
	bd := leaf.ServiceBreakdown()
	if bd["web"] <= 0 || bd["cache"] <= 0 {
		t.Errorf("breakdown = %v", bd)
	}
}

func TestLeafFailureEstimation(t *testing.T) {
	f := newFixture(t)
	refs := f.addFleet(10, "web", 0.7)
	// Partition one agent: its reading must be estimated from peers and
	// aggregation stays valid.
	f.partition(AgentAddr("web-003"))
	leaf := NewLeaf(f.loop, LeafConfig{DeviceID: "rpp1", Limit: power.KW(50), Alerts: f.alertSink()}, refs)
	leaf.Start()
	f.loop.RunUntil(15 * time.Second)
	agg, valid := leaf.LastAggregate()
	if !valid {
		t.Fatal("one failure out of ten must not invalidate aggregation")
	}
	truth := f.totalPower()
	rel := float64(agg-truth) / float64(truth)
	if rel < -0.05 || rel > 0.05 {
		t.Errorf("estimated aggregate %v vs truth %v", agg, truth)
	}
}

func TestLeafTooManyFailuresInvalidates(t *testing.T) {
	f := newFixture(t)
	refs := f.addFleet(10, "web", 0.7)
	for i := 0; i < 3; i++ { // 30% > 20% threshold
		f.partition(AgentAddr(fmt.Sprintf("web-%03d", i)))
	}
	leaf := NewLeaf(f.loop, LeafConfig{DeviceID: "rpp1", Limit: 100, Alerts: f.alertSink()}, refs)
	leaf.Start()
	f.loop.RunUntil(15 * time.Second)
	if _, valid := leaf.LastAggregate(); valid {
		t.Fatal("aggregation should be invalid at 30% failures")
	}
	// Despite being grossly over the (tiny) limit, no action was taken.
	if leaf.CapEvents() != 0 {
		t.Error("controller must not act on invalid aggregation")
	}
	foundCritical := false
	for _, a := range f.alerts {
		if a.Level == AlertCritical {
			foundCritical = true
		}
	}
	if !foundCritical {
		t.Error("expected critical alert for invalid aggregation")
	}
}

// TestInvalidCycleRecordsLimit: a cycle whose aggregation is invalid
// still ran against the controller's effective limit, and its journal
// record and the status's decision say so.
func TestInvalidCycleRecordsLimit(t *testing.T) {
	f := newFixture(t)
	refs := f.addFleet(10, "web", 0.7)
	for i := 0; i < 3; i++ { // 30% > 20% threshold
		f.partition(AgentAddr(fmt.Sprintf("web-%03d", i)))
	}
	leaf := NewLeaf(f.loop, LeafConfig{DeviceID: "rpp1", Limit: power.KW(50)}, refs)
	leaf.Start()
	// The partitioned pulls wait out their 2 s deadline: the cycles polling
	// at 3 s and 6 s complete at 5 s and 8 s.
	f.loop.RunUntil(5*time.Second + 500*time.Millisecond)
	leaf.setContract(power.KW(40)) // the effective limit is the contract from here on
	f.loop.RunUntil(9 * time.Second)
	recs := leaf.Journal().Records()
	dec := leaf.Status(0).Decisions
	if len(recs) != 2 || len(dec) != 2 {
		t.Fatalf("%d records and %d status decisions, want 2", len(recs), len(dec))
	}
	for i, want := range []power.Watts{power.KW(50), power.KW(40)} {
		if recs[i].Valid || recs[i].EffLimit != want {
			t.Errorf("cycle %d record: valid %v, limit %v; want false, %v", i+1, recs[i].Valid, recs[i].EffLimit, want)
		}
		if dec[i].Valid || dec[i].EffLimitWatts != float64(want) {
			t.Errorf("cycle %d status: valid %v, effective_limit_watts %v; want false, %v", i+1, dec[i].Valid, dec[i].EffLimitWatts, float64(want))
		}
	}
}

func TestLeafDryRun(t *testing.T) {
	f := newFixture(t)
	refs := f.addFleet(10, "web", 0.9)
	leaf := NewLeaf(f.loop, LeafConfig{
		DeviceID: "rpp1", Limit: 2500, DryRun: true, Alerts: f.alertSink(),
	}, refs)
	leaf.Start()
	f.loop.RunUntil(30 * time.Second)
	if leaf.CappedCount() != 0 {
		t.Error("dry-run must not actuate caps")
	}
	for _, id := range f.order {
		if _, capped := f.servers[id].Limit(); capped {
			t.Errorf("dry-run capped server %s", id)
		}
	}
	sawPlan := false
	for _, a := range f.alerts {
		if a.Level == AlertInfo {
			sawPlan = true
		}
	}
	if !sawPlan {
		t.Error("dry-run should report planned actions")
	}
}

func TestLeafContractLowersEffectiveLimit(t *testing.T) {
	f := newFixture(t)
	refs := f.addFleet(10, "web", 0.8) // ~2950 W
	leaf := NewLeaf(f.loop, LeafConfig{DeviceID: "rpp1", Limit: power.KW(50)}, refs)
	f.net.Register(CtrlAddr("rpp1"), leaf.Handler())
	leaf.Start()
	f.loop.RunUntil(10 * time.Second)
	if leaf.CappedCount() != 0 {
		t.Fatal("no capping expected under generous physical limit")
	}
	// Parent imposes a contractual limit below current draw.
	cl := f.dial(CtrlAddr("rpp1"))
	var acked bool
	cl.Call(MethodCtrlSetContract, &SetContractRequest{LimitWatts: 2700}, time.Second,
		func(resp []byte, err error) {
			var ack AckResponse
			acked = rpc.Decode(resp, err, &ack) == nil && ack.OK
		})
	f.loop.RunUntil(40 * time.Second)
	if !acked {
		t.Fatal("contract not acked")
	}
	if leaf.EffectiveLimit() != 2700 {
		t.Fatalf("effective limit = %v", leaf.EffectiveLimit())
	}
	// Contracts are enforced directly: settled power must not exceed the
	// contract itself (the parent's margin already sits above it).
	agg, _ := leaf.LastAggregate()
	if agg > 2700 {
		t.Errorf("aggregate %v above contractual limit", agg)
	}
	// Clearing the contract restores the physical limit and uncaps.
	cl.Call(MethodCtrlClearContract, rpc.Empty, time.Second, func([]byte, error) {})
	f.loop.RunUntil(80 * time.Second)
	if leaf.EffectiveLimit() != power.KW(50) {
		t.Errorf("effective limit after clear = %v", leaf.EffectiveLimit())
	}
	if leaf.CappedCount() != 0 {
		t.Error("caps should be released after contract cleared")
	}
}

func TestLeafValidatorMismatchAlerts(t *testing.T) {
	f := newFixture(t)
	refs := f.addFleet(5, "web", 0.6)
	leaf := NewLeaf(f.loop, LeafConfig{
		DeviceID: "rpp1", Limit: power.KW(50), Alerts: f.alertSink(),
		Validator: func() (power.Watts, bool) { return power.KW(5), true }, // way off
	}, refs)
	leaf.Start()
	f.loop.RunUntil(10 * time.Second)
	sawWarning := false
	for _, a := range f.alerts {
		if a.Level == AlertWarning {
			sawWarning = true
		}
	}
	if !sawWarning {
		t.Error("validator mismatch should raise a warning")
	}
}

func TestLeafPingHandler(t *testing.T) {
	f := newFixture(t)
	refs := f.addFleet(2, "web", 0.5)
	leaf := NewLeaf(f.loop, LeafConfig{DeviceID: "rpp1", Limit: power.KW(50)}, refs)
	f.net.Register(CtrlAddr("rpp1"), leaf.Handler())
	leaf.Start()
	f.loop.RunUntil(7 * time.Second)
	var pong CtrlPingResponse
	got := false
	f.dial(CtrlAddr("rpp1")).Call(MethodCtrlPing, rpc.Empty, time.Second,
		func(resp []byte, err error) { got = rpc.Decode(resp, err, &pong) == nil })
	f.loop.RunUntil(8 * time.Second)
	if !got || !pong.Healthy || pong.Cycles == 0 {
		t.Errorf("ping = %+v got=%v", pong, got)
	}
	if _, err := leaf.Handler()("Controller.Bogus", nil); err == nil {
		t.Error("unknown method should error")
	}
}

func TestLeafSetBands(t *testing.T) {
	f := newFixture(t)
	refs := f.addFleet(2, "web", 0.5)
	leaf := NewLeaf(f.loop, LeafConfig{DeviceID: "rpp1", Limit: power.KW(50)}, refs)
	if err := leaf.SetBands(BandConfig{CapThresholdFrac: 0.5, CapTargetFrac: 0.45, UncapThresholdFrac: 0.4}); err != nil {
		t.Fatal(err)
	}
	if err := leaf.SetBands(BandConfig{}); err == nil {
		t.Fatal("invalid bands should be rejected")
	}
}
