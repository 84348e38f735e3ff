package core

import (
	"bytes"
	"runtime"
	"slices"
	"testing"
	"time"

	"dynamo/internal/agent"
	"dynamo/internal/platform"
	"dynamo/internal/power"
)

// The paper's watchdog (§III-E) restarts crashed agents. Here it is the
// leaf's SetRestart hook, fired by the quarantine transition; these tests
// keep the watchdog's scenarios and assertions.

// restartLeaf builds a started leaf with quarantine on over refs, whose
// restart hook is restart.
func restartLeaf(f *fixture, refs []AgentRef, restart func(id string)) *Leaf {
	l := NewLeaf(f.loop, LeafConfig{
		DeviceID: "rpp1", Limit: power.KW(50), Alerts: f.alertSink(),
		QuarantineThreshold: 2,
	}, refs)
	l.SetRestart(restart)
	l.Start()
	return l
}

func TestWatchdogRestartsAgent(t *testing.T) {
	f := newFixture(t)
	refs := f.addFleet(5, "web", 0.5)
	restarted := map[string]int{}
	leaf := restartLeaf(f, refs, func(id string) {
		restarted[id]++
		// The "init system" restarts the agent process.
		f.restart(id)
	})
	f.loop.RunUntil(20 * time.Second)
	if len(restarted) != 0 {
		t.Fatalf("no restarts expected while healthy, got %v", restarted)
	}
	f.crash("web-002")
	f.loop.RunUntil(60 * time.Second)
	if restarted["web-002"] == 0 {
		t.Fatal("crashed agent was not restarted")
	}
	if restarted["web-000"] != 0 {
		t.Error("healthy agent restarted")
	}
	sawAlert := false
	for _, a := range f.alerts {
		if a.Level == AlertWarning && a.Kind == KindRestarting && a.Peer == "web-002" {
			sawAlert = true
		}
	}
	if !sawAlert {
		t.Error("expected a restart warning alert")
	}
	// After the restart the agent serves again and stays healthy.
	count := restarted["web-002"]
	f.loop.RunUntil(120 * time.Second)
	if restarted["web-002"] != count {
		t.Error("agent kept being restarted after heal")
	}
	if leaf.QuarantinedCount() != 0 {
		t.Error("restarted agent not re-admitted")
	}
}

func TestWatchdogMultipleFailures(t *testing.T) {
	f := newFixture(t)
	refs := f.addFleet(6, "web", 0.5)
	restarted := map[string]int{}
	restartLeaf(f, refs, func(id string) { restarted[id]++; f.restart(id) })
	f.crash("web-001")
	f.crash("web-004")
	f.loop.RunUntil(2 * time.Minute)
	if restarted["web-001"] == 0 || restarted["web-004"] == 0 {
		t.Errorf("restarts = %v", restarted)
	}
	if len(restarted) != 2 {
		t.Errorf("restarts = %v, want the two crashed agents only", restarted)
	}
}

// TestWatchdogRestartStormRateLimited fails every agent at once; the
// per-cycle cap spreads the restarts over cycles instead of restarting
// the whole row in one shot, and every agent is still eventually healed.
func TestWatchdogRestartStormRateLimited(t *testing.T) {
	f := newFixture(t)
	refs := f.addFleet(2*maxRestartsPerCycle+2, "web", 0.5)
	restarted := map[string]int{}
	perCycle := map[time.Duration]int{}
	leaf := restartLeaf(f, refs, func(id string) {
		restarted[id]++
		perCycle[f.loop.Now()]++
		f.restart(id)
	})
	for _, id := range f.order {
		f.crash(id)
	}
	f.loop.RunUntil(2 * time.Minute)
	for at, n := range perCycle {
		if n > maxRestartsPerCycle {
			t.Errorf("restart storm: %d restarts in the cycle at %v, cap is %d", n, at, maxRestartsPerCycle)
		}
	}
	if len(perCycle) < 3 {
		t.Errorf("%d agents restarted in %d cycles, want the storm spread over at least 3", len(f.order), len(perCycle))
	}
	for _, id := range f.order {
		if restarted[id] == 0 {
			t.Errorf("agent %s never restarted", id)
		}
	}
	if leaf.QuarantinedCount() != 0 {
		t.Errorf("%d agents still quarantined", leaf.QuarantinedCount())
	}
}

// TestWatchdogRestartCooldown keeps one agent permanently broken (the
// restart does not heal it): it is restarted again and again, never
// closer than restartEvery cycles apart.
func TestWatchdogRestartCooldown(t *testing.T) {
	f := newFixture(t)
	refs := f.addFleet(3, "web", 0.5)
	var restartTimes []time.Duration
	leaf := restartLeaf(f, refs, func(string) { restartTimes = append(restartTimes, f.loop.Now()) })
	f.crash("web-001")
	f.loop.RunUntil(3 * time.Minute)
	if len(restartTimes) < 3 {
		t.Fatalf("expected repeated restarts of a permanently broken agent, got %d", len(restartTimes))
	}
	cooldown := restartEvery * leaf.cfg.PollInterval
	for i := 1; i < len(restartTimes); i++ {
		if gap := restartTimes[i] - restartTimes[i-1]; gap < cooldown {
			t.Errorf("restarts %v apart, at least %d cycles (%v) expected", gap, restartEvery, cooldown)
		}
	}
}

// sickPlatform fails every power read until a restart heals it: the agent
// answers over a healthy transport but cannot do its job — the sick
// process, as against the unreachable one.
type sickPlatform struct {
	platform.Platform
	sick bool
}

func (p *sickPlatform) ReadPower() (platform.Reading, error) {
	if p.sick {
		return platform.Reading{}, platform.ErrReadFailed
	}
	return p.Platform.ReadPower()
}

// TestWatchdogHealthyFalseVsTimeout covers both unhealthy modes side by
// side: web-000 times out (partitioned), web-002's agent answers every
// pull with a read error. Both must be restarted; the healthy agents must
// not.
func TestWatchdogHealthyFalseVsTimeout(t *testing.T) {
	f := newFixture(t)
	refs := f.addFleet(4, "web", 0.5)
	sick := &sickPlatform{Platform: platform.NewMSR(f.servers["web-002"], platform.Options{Seed: 1}), sick: true}
	f.agents["web-002"] = agent.New("web-002", "web", "haswell2015", sick)
	f.restart("web-002")
	restarted := map[string]int{}
	leaf := restartLeaf(f, refs, func(id string) {
		restarted[id]++
		f.heal(AgentAddr(id))
		if id == "web-002" {
			sick.sick = false
		}
	})
	f.partition(AgentAddr("web-000"))
	f.loop.RunUntil(time.Minute)
	if restarted["web-000"] == 0 {
		t.Error("timed-out agent not restarted")
	}
	if restarted["web-002"] == 0 {
		t.Error("agent failing its reads not restarted")
	}
	if restarted["web-001"] != 0 || restarted["web-003"] != 0 {
		t.Errorf("healthy agent restarted: %v", restarted)
	}
	if leaf.QuarantinedCount() != 0 {
		t.Errorf("%d agents still quarantined after their restarts", leaf.QuarantinedCount())
	}
}

// TestWatchdogWithQuarantinedAgent: the restart is requested while the
// leaf holds the broken agent in quarantine, heals it, and the leaf's
// half-open probe then re-admits it.
func TestWatchdogWithQuarantinedAgent(t *testing.T) {
	f := newFixture(t)
	refs := f.addFleet(6, "web", 0.7)
	restarted := map[string]int{}
	quarantinedAtRestart := -1
	var leaf *Leaf
	leaf = restartLeaf(f, refs, func(id string) {
		restarted[id]++
		quarantinedAtRestart = leaf.QuarantinedCount()
		f.heal(AgentAddr(id))
	})
	f.loop.RunUntil(5 * time.Second)
	f.partition(AgentAddr("web-002"))
	f.loop.RunUntil(2 * time.Minute)
	if restarted["web-002"] == 0 {
		t.Fatal("leaf never restarted the broken agent")
	}
	if quarantinedAtRestart != 1 {
		t.Errorf("quarantined = %d at the restart, want 1", quarantinedAtRestart)
	}
	if leaf.QuarantinedCount() != 0 {
		t.Error("leaf did not re-admit the agent after the restart healed it")
	}
	if _, valid := leaf.LastAggregate(); !valid {
		t.Error("aggregation should be valid after recovery")
	}
	sawReadmit := false
	for _, a := range f.alerts {
		if a.Level == AlertInfo && a.Kind == KindReadmitted && a.Peer == "web-002" {
			sawReadmit = true
		}
	}
	if !sawReadmit {
		t.Error("expected a re-admission info alert")
	}
}

// TestWatchdogDialOverride partitions an agent through the fault injector
// the leaf dials through: a healthy agent behind a dead link looks dead,
// is restarted (which here heals the link) and is re-admitted.
func TestWatchdogDialOverride(t *testing.T) {
	f := newFixture(t)
	refs := f.addFleet(3, "web", 0.5)
	f.partition(AgentAddr("web-001"))
	restarted := map[string]int{}
	leaf := restartLeaf(f, refs, func(id string) { restarted[id]++; f.heal(AgentAddr(id)) })
	f.loop.RunUntil(time.Minute)
	if restarted["web-001"] == 0 {
		t.Error("injector-partitioned agent not restarted")
	}
	if restarted["web-000"] != 0 || restarted["web-002"] != 0 {
		t.Errorf("untargeted agents restarted: %v", restarted)
	}
	if leaf.QuarantinedCount() != 0 {
		t.Error("healed agent not re-admitted")
	}
}

// goroutineID is the running goroutine's number, from its stack header.
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1]) // "goroutine N [running]:"
}

// TestRestartHookRunsOnLoopGoroutine: two leaves share a cohort scheduler
// whose workers run their observe phases concurrently. The restart hook
// must still run on the loop goroutine, in the act phase, so restarts
// arrive in device order: the first leaf's agents, then the second's,
// each in configuration order.
func TestRestartHookRunsOnLoopGoroutine(t *testing.T) {
	f := newFixture(t)
	sched := NewCohortScheduler(f.loop, 2, nil)
	loopG := goroutineID()
	var got []string
	hook := func(id string) {
		if g := goroutineID(); g != loopG {
			t.Errorf("restart of %s on goroutine %s, the loop runs on %s", id, g, loopG)
		}
		got = append(got, id)
	}
	for _, svc := range []string{"web", "cache"} {
		leaf := NewLeaf(f.loop, LeafConfig{
			DeviceID: "rpp-" + svc, Limit: power.KW(50), Scheduler: sched, QuarantineThreshold: 1,
		}, f.addFleet(4, svc, 0.5))
		leaf.SetRestart(hook)
		leaf.Start()
	}
	for _, id := range []string{"web-003", "web-001", "cache-002", "cache-000"} {
		f.crash(id)
	}
	f.loop.RunUntil(time.Duration(restartEvery+2) * 3 * time.Second)
	once := []string{"web-001", "web-003", "cache-000", "cache-002"}
	if want := append(slices.Clone(once), once...); !slices.Equal(got, want) {
		t.Errorf("restarts %v, want %v", got, want)
	}
}
