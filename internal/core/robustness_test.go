package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"dynamo/internal/agent"
	"dynamo/internal/faults"
	"dynamo/internal/power"
	"dynamo/internal/rpc"
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
		if a.Level == AlertWarning && strings.Contains(a.Msg, "quarantined") {
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
		if a.Level == AlertInfo && strings.Contains(a.Msg, "re-admitted") {
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

// TestLeaseAckAfterStopStartIsFenced: renewals are in flight when the leaf
// is stopped and at once started again — three about to be acked, one
// dropped and waiting out its deadline and backoff before its retry. Every
// ack says the agent no longer holds its cap, which would clear the
// leaf's capped view; landing after Stop, none of them may touch it. The
// unstopped control shows the acks would.
func TestLeaseAckAfterStopStartIsFenced(t *testing.T) {
	for _, restart := range []bool{false, true} {
		t.Run(fmt.Sprintf("restart=%v", restart), func(t *testing.T) {
			f := newFixture(t)
			refs := f.addFleet(4, "web", 0.6)
			served := 0
			for _, id := range f.order {
				ag := f.agents[id]
				ag.EnableLease(f.loop, 0, nil)
				h := ag.Handler()
				if _, err := h(agent.MethodSetCap, wire.Marshal(&agent.SetCapRequest{LimitWatts: 1000, LeaseNanos: uint64(15 * time.Second)})); err != nil {
					t.Fatal(err)
				}
				f.net.Register(AgentAddr(id), func(method string, body []byte) (wire.Message, error) {
					if method == agent.MethodRenewLease {
						served++
					}
					return h(method, body)
				})
			}
			// The first renewal to web-000 is dropped; its retry gets through.
			f.faults.Add(faults.Rule{Peer: AgentAddr("web-000"), Method: agent.MethodRenewLease,
				Until: 3*time.Second + 100*time.Millisecond, DropP: 1})
			leaf := NewLeaf(f.loop, LeafConfig{
				DeviceID: "rpp1", Limit: power.KW(50), Alerts: f.alertSink(),
				Bands:       BandConfig{CapThresholdFrac: 0.99, CapTargetFrac: 0.95, UncapThresholdFrac: 0.01},
				PullTimeout: 200 * time.Millisecond,
				Retry:       retryCfg(),
				CapLeaseTTL: 15 * time.Second,
			}, refs)
			leaf.Start()
			// The cycle polling at 3 s completes, and renews every lease, at
			// 3.004 s; the renewals reach the agents at 3.006 s, once their
			// caps are gone, and are acked at 3.008 s.
			f.loop.RunUntil(3*time.Second + 5*time.Millisecond)
			if got := leaf.CappedCount(); got != 4 {
				t.Fatalf("%d agents capped after the first cycle, want 4", got)
			}
			for _, id := range f.order {
				if _, err := f.agents[id].Handler()(agent.MethodClearCap, nil); err != nil {
					t.Fatal(err)
				}
			}
			f.loop.RunUntil(3*time.Second + 7*time.Millisecond)
			if restart {
				leaf.Stop()
				leaf.Start()
			}
			f.loop.RunUntil(3*time.Second + 500*time.Millisecond)
			if served != 4 || leaf.Retries() != 1 {
				t.Fatalf("agents served %d renewals after %d retries, want 4 after 1", served, leaf.Retries())
			}
			want := 0
			if restart {
				want = 4
			}
			if got := leaf.CappedCount(); got != want {
				t.Errorf("%d agents capped in the leaf's view after the acks, want %d", got, want)
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

// TestWatchdogRestartStormRateLimited fails many agents at once; the
// per-sweep cap spreads restarts over sweeps instead of restarting the
// whole fleet in one shot, and every agent is still eventually healed.
func TestWatchdogRestartStormRateLimited(t *testing.T) {
	f := newFixture(t)
	f.addFleet(8, "web", 0.5)
	restarted := map[string]int{}
	var maxPerSweep int
	sweepCounts := map[time.Duration]int{}
	w := NewWatchdog(f.loop, f.net, f.order, WatchdogConfig{
		Interval: 5 * time.Second, FailThreshold: 2,
		MaxRestartsPerSweep: 2,
		Restart: func(id string) {
			restarted[id]++
			sweepCounts[f.loop.Now()]++
			if sweepCounts[f.loop.Now()] > maxPerSweep {
				maxPerSweep = sweepCounts[f.loop.Now()]
			}
			f.restart(id)
		},
		Alerts: f.alertSink(),
	})
	w.Start()
	for _, id := range f.order {
		f.crash(id)
	}
	f.loop.RunUntil(2 * time.Minute)
	if maxPerSweep > 2 {
		t.Errorf("restart storm: %d restarts in one sweep, cap is 2", maxPerSweep)
	}
	if w.Suppressed() == 0 {
		t.Error("expected suppressed restarts under the storm limiter")
	}
	for _, id := range f.order {
		if restarted[id] == 0 {
			t.Errorf("agent %s never restarted", id)
		}
	}
}

// TestWatchdogRestartCooldown keeps one agent permanently broken (the
// restart does not heal it); the cooldown spaces successive restarts.
func TestWatchdogRestartCooldown(t *testing.T) {
	f := newFixture(t)
	f.addFleet(3, "web", 0.5)
	var restartTimes []time.Duration
	const cooldown = 40 * time.Second
	w := NewWatchdog(f.loop, f.net, f.order, WatchdogConfig{
		Interval: 5 * time.Second, FailThreshold: 2,
		RestartCooldown: cooldown,
		// Restart never heals: the agent stays down.
		Restart: func(id string) { restartTimes = append(restartTimes, f.loop.Now()) },
	})
	w.Start()
	f.crash("web-001")
	f.loop.RunUntil(3 * time.Minute)
	if len(restartTimes) < 2 {
		t.Fatalf("expected repeated restarts of a permanently broken agent, got %d", len(restartTimes))
	}
	for i := 1; i < len(restartTimes); i++ {
		if gap := restartTimes[i] - restartTimes[i-1]; gap < cooldown {
			t.Errorf("restarts %v apart, cooldown is %v", gap, cooldown)
		}
	}
	if w.Suppressed() == 0 {
		t.Error("cooldown should have suppressed some restart decisions")
	}
}

// zombieAgent answers pings over a healthy transport but reports
// Healthy=false until healed — the sick-process (vs dead-network) case.
type zombieAgent struct{ healthy bool }

func newZombieAgent() *zombieAgent { return &zombieAgent{} }

func (z *zombieAgent) heal() { z.healthy = true }

func (z *zombieAgent) handler() rpc.Handler {
	return func(method string, body []byte) (wire.Message, error) {
		return &agent.PingResponse{Healthy: z.healthy}, nil
	}
}

// TestWatchdogHealthyFalseVsTimeout covers both unhealthy modes side by
// side: web-000 times out (partitioned), the zombie answers Healthy=false.
// Both must be restarted; the healthy agent must not.
func TestWatchdogHealthyFalseVsTimeout(t *testing.T) {
	f := newFixture(t)
	f.addFleet(2, "web", 0.5)
	zombie := newZombieAgent()
	f.net.Register(AgentAddr("zombie"), zombie.handler())
	ids := append([]string{}, f.order...)
	ids = append(ids, "zombie")
	restarted := map[string]int{}
	w := NewWatchdog(f.loop, f.net, ids, WatchdogConfig{
		Interval: 5 * time.Second, FailThreshold: 2,
		Dial: f.dial,
		Restart: func(id string) {
			restarted[id]++
			f.heal(AgentAddr(id))
			zombie.heal()
		},
		Alerts: f.alertSink(),
	})
	w.Start()
	f.partition(AgentAddr("web-000"))
	f.loop.RunUntil(time.Minute)
	if restarted["web-000"] == 0 {
		t.Error("timed-out agent not restarted")
	}
	if restarted["zombie"] == 0 {
		t.Error("Healthy=false agent not restarted")
	}
	if restarted["web-001"] != 0 {
		t.Error("healthy agent restarted")
	}
}

// TestWatchdogWithQuarantinedAgent runs the watchdog and a quarantining
// leaf against the same broken agent: the watchdog's restart heals it, and
// the leaf's half-open probe then re-admits it — the two mechanisms
// compose instead of fighting.
func TestWatchdogWithQuarantinedAgent(t *testing.T) {
	f := newFixture(t)
	refs := f.addFleet(6, "web", 0.7)
	leaf := NewLeaf(f.loop, LeafConfig{
		DeviceID: "rpp1", Limit: power.KW(50), Alerts: f.alertSink(),
		QuarantineThreshold: 2,
	}, refs)
	leaf.Start()
	restarted := map[string]int{}
	w := NewWatchdog(f.loop, f.net, f.order, WatchdogConfig{
		Interval: 10 * time.Second, FailThreshold: 2,
		Dial: f.dial,
		Restart: func(id string) {
			restarted[id]++
			f.heal(AgentAddr(id))
		},
		Alerts: f.alertSink(),
	})
	w.Start()
	f.loop.RunUntil(5 * time.Second)
	f.partition(AgentAddr("web-002"))
	f.loop.RunUntil(20 * time.Second)
	if leaf.QuarantinedCount() != 1 {
		t.Fatalf("quarantined = %d, want 1 before the watchdog heals", leaf.QuarantinedCount())
	}
	f.loop.RunUntil(2 * time.Minute)
	if restarted["web-002"] == 0 {
		t.Error("watchdog never restarted the broken agent")
	}
	if leaf.QuarantinedCount() != 0 {
		t.Error("leaf did not re-admit the agent after the watchdog healed it")
	}
	if _, valid := leaf.LastAggregate(); !valid {
		t.Error("aggregation should be valid after recovery")
	}
}

// TestWatchdogDialOverride routes watchdog pings through the fault
// injector; a 100% drop rule makes a healthy agent look dead.
func TestWatchdogDialOverride(t *testing.T) {
	f := newFixture(t)
	f.addFleet(3, "web", 0.5)
	f.partition(AgentAddr("web-001"))
	restarted := map[string]int{}
	w := NewWatchdog(f.loop, f.net, f.order, WatchdogConfig{
		Interval: 5 * time.Second, FailThreshold: 2,
		Dial:    f.dial,
		Restart: func(id string) { restarted[id]++ },
	})
	w.Start()
	f.loop.RunUntil(time.Minute)
	if restarted["web-001"] == 0 {
		t.Error("injector-partitioned agent not restarted")
	}
	if restarted["web-000"] != 0 || restarted["web-002"] != 0 {
		t.Errorf("untargeted agents restarted: %v", restarted)
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
