package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"dynamo/internal/agent"
	"dynamo/internal/faults"
	"dynamo/internal/power"
	"dynamo/internal/wire"
)

// retryCfg is a small bounded-retry policy that fits inside the default
// 3 s poll interval (pull timeout 2 s, so one retry with short backoff).
func retryCfg() RetryConfig {
	return RetryConfig{MaxRetries: 2, Backoff: 20 * time.Millisecond, JitterFrac: 0.2, Seed: 7}
}

// TestLeafRetriesRecoverFlakyAgent drops half of one agent's pulls via the
// fault injector; bounded retries keep the leaf's aggregation valid and
// the retry counter moving.
func TestLeafRetriesRecoverFlakyAgent(t *testing.T) {
	f := newFixture(t)
	refs := f.addFleet(8, "web", 0.6)
	f.faults.Add(faults.Rule{Peer: AgentAddr("web-002"), Method: "*", DropP: 0.5})
	leaf := NewLeaf(f.loop, LeafConfig{
		DeviceID: "rpp1", Limit: power.KW(50), Alerts: f.alertSink(),
		PullTimeout: 200 * time.Millisecond,
		Retry:       retryCfg(),
	}, refs)
	leaf.Start()
	f.loop.RunUntil(60 * time.Second)
	if leaf.Retries() == 0 {
		t.Error("expected retries against the flaky agent")
	}
	if _, valid := leaf.LastAggregate(); !valid {
		t.Error("aggregation should stay valid with one flaky agent")
	}
	dropped, _, _ := f.faults.Counts()
	if dropped == 0 {
		t.Error("injector dropped nothing; test exercised no faults")
	}
}

// TestLeafQuarantineAndReadmit partitions one agent until the breaker
// trips, then heals the partition and waits for a half-open probe to
// re-admit it.
func TestLeafQuarantineAndReadmit(t *testing.T) {
	f := newFixture(t)
	refs := f.addFleet(10, "web", 0.7)
	f.partition(AgentAddr("web-003"))
	leaf := NewLeaf(f.loop, LeafConfig{
		DeviceID: "rpp1", Limit: power.KW(50), Alerts: f.alertSink(),
		QuarantineThreshold: 2,
	}, refs)
	leaf.Start()
	f.loop.RunUntil(15 * time.Second)
	if got := leaf.QuarantinedCount(); got != 1 {
		t.Fatalf("quarantined = %d, want 1", got)
	}
	if _, valid := leaf.LastAggregate(); !valid {
		t.Error("estimation should keep aggregation valid with one quarantined agent")
	}
	sawTrip := false
	for _, a := range f.alerts {
		if a.Level == AlertWarning && a.Kind == KindQuarantined {
			sawTrip = true
		}
	}
	if !sawTrip {
		t.Error("expected a quarantine warning alert")
	}
	// While quarantined, probes are spaced: the agent must not be pulled
	// every cycle (no invalid-cycle or failure-counting flood).
	f.heal(AgentAddr("web-003"))
	f.loop.RunUntil(45 * time.Second)
	if got := leaf.QuarantinedCount(); got != 0 {
		t.Fatalf("agent not re-admitted after heal: quarantined = %d", got)
	}
	sawReadmit := false
	for _, a := range f.alerts {
		if a.Level == AlertInfo && a.Kind == KindReadmitted {
			sawReadmit = true
		}
	}
	if !sawReadmit {
		t.Error("expected a re-admission info alert")
	}
}

// TestLeafQuarantineExcludedFromFailureFraction: with 3/10 agents
// quarantined, cycles must stay valid — quarantined agents are estimated,
// not counted toward the >20% invalid-cycle threshold.
func TestLeafQuarantineExcludedFromFailureFraction(t *testing.T) {
	f := newFixture(t)
	refs := f.addFleet(10, "web", 0.7)
	for _, id := range []string{"web-001", "web-004", "web-007"} {
		f.partition(AgentAddr(id))
	}
	leaf := NewLeaf(f.loop, LeafConfig{
		DeviceID: "rpp1", Limit: power.KW(50), Alerts: f.alertSink(),
		QuarantineThreshold: 2,
	}, refs)
	leaf.Start()
	f.loop.RunUntil(30 * time.Second)
	if got := leaf.QuarantinedCount(); got != 3 {
		t.Fatalf("quarantined = %d, want 3", got)
	}
	if _, valid := leaf.LastAggregate(); !valid {
		t.Error("quarantined agents must not flood the failure fraction: cycle should be valid")
	}
	// Invalid-cycle criticals are expected while the breakers trip in
	// (the first cycles legitimately see 30% failures); once all three
	// agents are quarantined the flood must stop.
	for _, a := range f.alerts {
		if a.Level == AlertCritical && a.Time > 15*time.Second {
			t.Errorf("critical alert after quarantine settled: %v", a)
		}
	}
}

// TestLeafCapLeaseRenewalAndExpiry: while the leaf runs, lease renewals
// keep caps alive well past the TTL; once the leaf stops renewing, agents
// release their caps on their own.
func TestLeafCapLeaseRenewalAndExpiry(t *testing.T) {
	f := newFixture(t)
	refs := f.addFleet(10, "web", 0.9)
	for _, id := range f.order {
		f.agents[id].EnableLease(f.loop, 0, nil)
	}
	const ttl = 7 * time.Second
	leaf := NewLeaf(f.loop, LeafConfig{
		DeviceID: "rpp1", Limit: 2500, Alerts: f.alertSink(),
		CapLeaseTTL: ttl,
	}, refs)
	leaf.Start()
	f.loop.RunUntil(60 * time.Second) // many TTLs worth of renewed cycles
	if leaf.CappedCount() == 0 {
		t.Fatal("expected capped servers under overload")
	}
	for _, id := range f.order {
		if n := f.agents[id].LeaseExpiries(); n != 0 {
			t.Fatalf("agent %s lease expired %d times while leaf was renewing", id, n)
		}
	}
	// Kill the controller: no more renewals. Caps must clear within TTL.
	leaf.Stop()
	f.loop.RunUntil(60*time.Second + ttl + 2*time.Second)
	for _, id := range f.order {
		if _, capped := f.servers[id].Limit(); capped {
			t.Errorf("server %s still capped after lease TTL with dead controller", id)
		}
	}
	var expiries uint64
	for _, id := range f.order {
		expiries += f.agents[id].LeaseExpiries()
	}
	if expiries == 0 {
		t.Error("expected lease expiries after controller death")
	}
}

// leasedPull reports the lease a request renews: only a pull of a capped
// agent carries one, and a plain read has an empty body.
func leasedPull(method string, body []byte) time.Duration {
	if method != agent.MethodReadPower {
		return 0
	}
	var d wire.Decoder
	var req agent.ReadPowerRequest
	d.Reset(body)
	if req.UnmarshalWire(&d) != nil {
		return 0
	}
	return time.Duration(req.LeaseNanos)
}

// TestPullCarriesLease: with a cap lease, every pull of an agent the leaf
// sees capped renews the lease, a half-open probe of a quarantined one
// too; pulls of uncapped agents are plain reads; and an upper's pulls of a
// contracted child never carry one.
func TestPullCarriesLease(t *testing.T) {
	const ttl = 15 * time.Second
	f := newFixture(t)
	refs := f.addFleet(4, "web", 0.6)
	leases := map[string][]time.Duration{}
	for i, id := range f.order {
		ag := f.agents[id]
		ag.EnableLease(f.loop, 0, nil)
		h := ag.Handler()
		if i < 2 { // a cap above the draw, which the leaf holds
			if _, err := h(agent.MethodSetCap, wire.Marshal(&agent.SetCapRequest{LimitWatts: 1000, LeaseNanos: uint64(ttl)})); err != nil {
				t.Fatal(err)
			}
		}
		f.net.Register(AgentAddr(id), func(method string, body []byte) (wire.Message, error) {
			leases[id] = append(leases[id], leasedPull(method, body))
			if id == "web-001" && f.loop.Now() > 4*time.Second {
				return nil, fmt.Errorf("%s: sensor failed", id)
			}
			return h(method, body)
		})
	}
	leaf := NewLeaf(f.loop, LeafConfig{
		DeviceID: "rpp1", Limit: power.KW(50), Alerts: f.alertSink(),
		Bands:               BandConfig{CapThresholdFrac: 0.99, CapTargetFrac: 0.95, UncapThresholdFrac: 0.01},
		QuarantineThreshold: 2,
		CapLeaseTTL:         ttl,
	}, refs)
	leaf.Start()
	// Cycles poll at 3, 6, 9, 12 and 15 s. The first finds web-000 and
	// web-001 capped; web-001 fails from then on, is quarantined by the
	// third cycle, left out of the fourth and probed in the fifth.
	f.loop.RunUntil(16 * time.Second)
	if got := leaf.QuarantinedCount(); got != 1 {
		t.Fatalf("%d agents quarantined, want 1", got)
	}
	want := map[string][]time.Duration{
		"web-000": {0, ttl, ttl, ttl, ttl},
		"web-001": {0, ttl, ttl, ttl},
		"web-002": {0, 0, 0, 0, 0},
		"web-003": {0, 0, 0, 0, 0},
	}
	if !reflect.DeepEqual(leases, want) {
		t.Errorf("the leases the pulls carried:\n got %v\nwant %v", leases, want)
	}

	uf := buildUpper(t, 10, [2]float64{0.9, 0.45}, [2]power.Watts{2500, 2500}, 5000)
	pulls, leased := 0, 0
	for _, id := range []string{"child1", "child2"} {
		h := uf.leaves[id].Handler()
		uf.net.Register(CtrlAddr(id), func(method string, body []byte) (wire.Message, error) {
			if method == MethodCtrlReadPower {
				pulls++
				if len(body) > 0 {
					leased++
				}
			}
			return h(method, body)
		})
	}
	uf.loop.RunUntil(40 * time.Second)
	if len(uf.upper.ContractedChildren()) == 0 || pulls == 0 || leased != 0 {
		t.Errorf("the upper contracted %v; %d of its %d pulls carried a body, want a contract and none",
			uf.upper.ContractedChildren(), leased, pulls)
	}
}

// TestLeaseAckAfterStopStartIsFenced: the replies of a cycle's renewing
// pulls — the only ack a lease gets — land after the leaf is stopped and
// at once started again: three just after, and one whose first attempt was
// dropped, after its deadline, backoff and retry. Every agent's cap was
// released meanwhile, so the replies find the servers over the limit and
// the cycle they complete decides to cap; it was opened before Stop, so
// it journals the decision and sends nothing. The unstopped control shows
// the replies would cap.
func TestLeaseAckAfterStopStartIsFenced(t *testing.T) {
	const ttl = 15 * time.Second
	for _, restart := range []bool{false, true} {
		t.Run(fmt.Sprintf("restart=%v", restart), func(t *testing.T) {
			f := newFixture(t)
			// Four servers draw ~1280 W uncapped, ~630 W under a 150 W cap
			// each: against 1 kW the caps hold and their release cuts.
			refs := f.addFleet(4, "web", 0.9)
			renewing := 0
			for _, id := range f.order {
				ag := f.agents[id]
				ag.EnableLease(f.loop, 0, nil)
				h := ag.Handler()
				if _, err := h(agent.MethodSetCap, wire.Marshal(&agent.SetCapRequest{LimitWatts: 150, LeaseNanos: uint64(ttl)})); err != nil {
					t.Fatal(err)
				}
				f.net.Register(AgentAddr(id), func(method string, body []byte) (wire.Message, error) {
					if leasedPull(method, body) == ttl {
						renewing++
					}
					return h(method, body)
				})
			}
			// The first renewing pull to web-000 is dropped; its retry gets
			// through.
			f.faults.Add(faults.Rule{Peer: AgentAddr("web-000"), Method: agent.MethodReadPower,
				From: 3*time.Second + 100*time.Millisecond, Until: 6*time.Second + 100*time.Millisecond, DropP: 1})
			leaf := NewLeaf(f.loop, LeafConfig{
				DeviceID: "rpp1", Limit: 1000, Alerts: f.alertSink(),
				Bands:       BandConfig{CapThresholdFrac: 0.99, CapTargetFrac: 0.95, UncapThresholdFrac: 0.01},
				PullTimeout: 200 * time.Millisecond,
				Retry:       retryCfg(),
				CapLeaseTTL: ttl,
			}, refs)
			leaf.Start()
			// The first cycle finds the caps and holds them. The servers
			// tick every second, so caps cleared at 5.5 s show in the
			// readings of the cycle polling at 6 s, whose renewing pulls
			// reach the agents at 6.002 s and are answered at 6.004 s.
			f.loop.RunUntil(5*time.Second + 500*time.Millisecond)
			if got, events := leaf.CappedCount(), leaf.CapEvents(); got != 4 || events != 0 {
				t.Fatalf("after the first cycle the leaf sees %d agents capped after %d cap events, want 4 after 0", got, events)
			}
			for _, id := range f.order {
				if _, err := f.agents[id].Handler()(agent.MethodClearCap, nil); err != nil {
					t.Fatal(err)
				}
			}
			f.loop.RunUntil(6*time.Second + 3*time.Millisecond)
			if restart {
				leaf.Stop()
				leaf.Start()
			}
			f.loop.RunUntil(6*time.Second + 500*time.Millisecond)
			if renewing != 4 || leaf.Retries() != 1 {
				t.Fatalf("agents served %d renewing pulls after %d retries, want 4 after 1", renewing, leaf.Retries())
			}
			recs := leaf.Journal().Records()
			if len(recs) != 2 || recs[1].Action != ActionCap {
				t.Fatalf("journal %v: the late replies' cycle should record a cap decision", recs)
			}
			want := uint64(1)
			if restart {
				want = 0
			}
			if got := leaf.CapEvents(); got != want {
				t.Errorf("%d cap events after the late replies, want %d", got, want)
			}
			capped := 0
			for _, id := range f.order {
				if _, ok := f.servers[id].Limit(); ok {
					capped++
				}
			}
			if capped != 4*int(want) {
				t.Errorf("%d servers capped after the late replies, want %d", capped, 4*want)
			}
		})
	}
}

// TestLeafStopMidCycleSendsNothing stops a controller of either level
// while the pulls of a cycle that will decide to cut are still in flight:
// the completions must not actuate anything, though the cycle still
// journals its decision.
func TestLeafStopMidCycleSendsNothing(t *testing.T) {
	type stopped interface {
		Controller
		CapEvents() uint64
	}
	for _, tc := range []struct {
		level string
		// build returns the controller to stop, the instant its first
		// cutting cycle polls (pulls ride 2 ms of network latency, so at
		// exactly that instant the cycle is open with every pull in
		// flight), and a probe naming anything that was commanded.
		build func(t *testing.T) (f *fixture, ctrl stopped, polls time.Duration, actuated func() string)
	}{
		{"leaf", func(t *testing.T) (*fixture, stopped, time.Duration, func() string) {
			f := newFixture(t)
			refs := f.addFleet(10, "web", 0.9)
			leaf := NewLeaf(f.loop, LeafConfig{
				DeviceID: "rpp1", Limit: 100, Alerts: f.alertSink(), // grossly over: caps planned immediately
			}, refs)
			leaf.Start()
			return f, leaf, 3 * time.Second, func() string {
				for _, id := range f.order {
					if _, capped := f.servers[id].Limit(); capped {
						return "server " + id + " capped"
					}
				}
				return ""
			}
		}},
		{"upper", func(t *testing.T) (*fixture, stopped, time.Duration, func() string) {
			// child1 runs hot under a 5 kW parent: the upper's first cycle
			// (9 s) sees two valid child aggregates and plans a contract.
			uf := buildUpper(t, 10, [2]float64{0.9, 0.45}, [2]power.Watts{2500, 2500}, 5000)
			return uf.fixture, uf.upper, 9 * time.Second, func() string {
				for _, id := range []string{"child1", "child2"} {
					if c := uf.leaves[id].Contract(); c != 0 {
						return fmt.Sprintf("%s put under a %v contract", id, c)
					}
				}
				return ""
			}
		}},
	} {
		t.Run(tc.level, func(t *testing.T) {
			f, ctrl, polls, actuated := tc.build(t)
			f.loop.RunUntil(polls)
			ctrl.Stop()
			f.loop.RunUntil(polls + 27*time.Second)
			if what := actuated(); what != "" {
				t.Errorf("%s by a cycle completing after Stop", what)
			}
			if ctrl.CapEvents() != 0 {
				t.Errorf("capEvents = %d after mid-cycle Stop", ctrl.CapEvents())
			}
			recs := ctrl.Journal().Records()
			if len(recs) == 0 || recs[len(recs)-1].Action != ActionCap {
				t.Errorf("journal %v: the stopped cycle should still record its cap decision", recs)
			}
		})
	}
}

// TestUpperRetriesRecoverFlakyChild drops half of one child's reads; with
// retries the MSB keeps a valid aggregate.
func TestUpperRetriesRecoverFlakyChild(t *testing.T) {
	f := newFixture(t)
	refsA := f.addFleet(5, "web", 0.6)
	refsB := f.addFleet(5, "cache", 0.6)
	leafA := NewLeaf(f.loop, LeafConfig{DeviceID: "rppA", Limit: power.KW(50)}, refsA)
	leafB := NewLeaf(f.loop, LeafConfig{DeviceID: "rppB", Limit: power.KW(50)}, refsB)
	f.net.Register(CtrlAddr("rppA"), leafA.Handler())
	f.net.Register(CtrlAddr("rppB"), leafB.Handler())
	f.faults.Add(faults.Rule{Peer: CtrlAddr("rppB"), Method: "*", DropP: 0.5})
	up := NewUpper(f.loop, UpperConfig{
		DeviceID: "sb1", Limit: power.KW(100), Alerts: f.alertSink(),
		PullTimeout: 200 * time.Millisecond,
		Retry:       retryCfg(),
	}, []ChildRef{
		{ID: "rppA", Client: f.dial(CtrlAddr("rppA"))},
		{ID: "rppB", Client: f.dial(CtrlAddr("rppB"))},
	})
	leafA.Start()
	leafB.Start()
	up.Start()
	f.loop.RunUntil(60 * time.Second)
	if up.Retries() == 0 {
		t.Error("expected retries against the flaky child")
	}
	if _, valid := up.LastAggregate(); !valid {
		t.Error("upper aggregation should stay valid with retries covering the flaky child")
	}
}
