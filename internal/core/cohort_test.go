package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"dynamo/internal/power"
	"dynamo/internal/server"
	"dynamo/internal/simclock"
	"dynamo/internal/statestore"
	"dynamo/internal/telemetry"
)

// phasedFixture is a two-leaf, one-upper hierarchy whose construction is
// fully deterministic, used to compare scheduled against unscheduled
// execution.
type phasedFixture struct {
	*fixture
	leaves []*Leaf
	upper  *Upper
}

// phasedScenario sizes the hierarchy: servers per leaf, the load of the
// second leaf's servers (the first leaf idles at 0.5) and the sensor-noise
// seed. The upper limit scales with the fleet so the loaded leaf pushes the
// total over it.
type phasedScenario struct {
	perChild int
	load     float64
	seed     int64
}

// buildPhased assembles the hierarchy. workers == 0 attaches no scheduler
// (every controller runs its phases itself at the completion instant);
// otherwise all three share a cohort scheduler with that many workers.
func buildPhased(t *testing.T, sc phasedScenario, workers int, tel *telemetry.Sink) *phasedFixture {
	t.Helper()
	f := newFixture(t)
	f.seedBase = sc.seed
	pf := &phasedFixture{fixture: f}
	var sched *CohortScheduler
	if workers > 0 {
		sched = NewCohortScheduler(f.loop, workers, tel)
	}
	var children []ChildRef
	for c := 0; c < 2; c++ {
		child := fmt.Sprintf("child%d", c+1)
		var refs []AgentRef
		load := 0.5
		if c == 1 {
			load = sc.load
		}
		for i := 0; i < sc.perChild; i++ {
			id := fmt.Sprintf("%s-web-%03d", child, i)
			f.addServer(id, "web", server.LoadFunc(func(time.Duration) float64 { return load }))
			refs = append(refs, AgentRef{ServerID: id, Service: "web",
				Generation: "haswell2015", Client: f.dial(AgentAddr(id))})
		}
		quota := power.Watts(250 * sc.perChild)
		leaf := NewLeaf(f.loop, LeafConfig{
			DeviceID:  child,
			Limit:     power.KW(200),
			Quota:     quota,
			Alerts:    f.alertSink(),
			Telemetry: tel,
			Scheduler: sched,
		}, refs)
		f.net.Register(CtrlAddr(child), leaf.Handler())
		pf.leaves = append(pf.leaves, leaf)
		children = append(children, ChildRef{ID: child, Client: f.dial(CtrlAddr(child)), Quota: quota})
	}
	pf.upper = NewUpper(f.loop, UpperConfig{
		DeviceID: "sb1", Limit: power.Watts(3100 * sc.perChild / 6), Alerts: f.alertSink(),
		OffenderBucket: 100, Telemetry: tel, Scheduler: sched,
	}, children)
	f.net.Register(CtrlAddr("sb1"), pf.upper.Handler())
	for _, l := range pf.leaves {
		l.Start()
	}
	pf.upper.Start()
	return pf
}

// fixedScenario is tight enough to force a capping episode, so runs over
// it exercise plans, contracts, and journals.
var fixedScenario = phasedScenario{perChild: 6, load: 0.8}

// journals snapshots every controller's decision log.
func (pf *phasedFixture) journals() map[string][]DecisionRecord {
	out := map[string][]DecisionRecord{}
	for _, l := range pf.leaves {
		out[l.DeviceID()] = l.Journal().Records()
	}
	out[pf.upper.DeviceID()] = pf.upper.Journal().Records()
	return out
}

// TestCohortMatchesUnscheduled is the core phase-model equivalence check:
// the same scenario run with no scheduler and with cohort scheduling at
// several worker counts must produce record-identical decision journals on
// every controller and the same alerts and physical outcome. It runs the
// fixed scenario and three randomised ones (fleet size, load level and
// noise seed drawn per trial).
func TestCohortMatchesUnscheduled(t *testing.T) {
	type outcome struct {
		journals map[string][]DecisionRecord
		alerts   int
		total    power.Watts
	}
	run := func(sc phasedScenario, workers int) outcome {
		pf := buildPhased(t, sc, workers, nil)
		pf.loop.RunUntil(90 * time.Second)
		var total power.Watts // summed in fleet order: totalPower ranges over a map
		for _, id := range pf.order {
			total += pf.servers[id].Power()
		}
		return outcome{pf.journals(), len(pf.alerts), total}
	}
	rng := rand.New(rand.NewSource(21))
	scenarios := []phasedScenario{fixedScenario}
	for trial := 0; trial < 3; trial++ {
		scenarios = append(scenarios, phasedScenario{
			perChild: 6 + rng.Intn(25),
			load:     0.8 + 0.15*rng.Float64(),
			seed:     rng.Int63n(1000) + 1,
		})
	}
	for i, sc := range scenarios {
		base := run(sc, 0)
		// The scenario must actually exercise the planners or the
		// comparison is vacuous.
		capped := false
		for _, recs := range base.journals {
			for _, r := range recs {
				if r.Action == ActionCap {
					capped = true
				}
			}
		}
		if !capped {
			t.Fatalf("scenario %d %+v produced no capping; cross-check is vacuous", i, sc)
		}
		for _, workers := range []int{1, 4, 16} {
			if got := run(sc, workers); !reflect.DeepEqual(base, got) {
				t.Errorf("scenario %d %+v: workers=%d diverges from the unscheduled run", i, sc, workers)
			}
		}
	}
}

// TestCohortPhaseTelemetry checks the scheduler's per-phase histograms and
// flush counter are populated when a sink is attached.
func TestCohortPhaseTelemetry(t *testing.T) {
	sink := telemetry.NewSink()
	pf := buildPhased(t, fixedScenario, 2, sink)
	pf.loop.RunUntil(30 * time.Second)

	if n := sink.Counter("dynamo_control_cohort_flushes_total").Value(); n == 0 {
		t.Error("no cohort flushes recorded")
	}
	obs := sink.Histogram("dynamo_control_phase_seconds", PhaseBuckets, "phase", "observe")
	act := sink.Histogram("dynamo_control_phase_seconds", PhaseBuckets, "phase", "act")
	if obs.Count() == 0 || act.Count() == 0 {
		t.Errorf("phase histograms empty: observe=%d act=%d", obs.Count(), act.Count())
	}
	size := sink.Histogram("dynamo_control_cohort_size", CohortSizeBuckets)
	if size.Count() == 0 {
		t.Error("cohort size histogram empty")
	}
	// Both leaves complete at the same virtual instant, so at least one
	// cohort must have held more than one controller (size sum > flushes).
	if size.Sum() <= float64(sink.Counter("dynamo_control_cohort_flushes_total").Value()) {
		t.Errorf("cohorts never batched: size sum %v, flushes %d",
			size.Sum(), sink.Counter("dynamo_control_cohort_flushes_total").Value())
	}
}

// TestLeafDeferredReconfig checks SetBands/SetPollInterval land immediately
// at a cycle boundary but are deferred (and counted) when a cycle is in
// flight, so a reconfiguration can never race an observe phase on a
// cohort worker.
func TestLeafDeferredReconfig(t *testing.T) {
	f := newFixture(t)
	refs := f.addFleet(5, "web", 0.5)
	sched := NewCohortScheduler(f.loop, 2, nil)
	leaf := NewLeaf(f.loop, LeafConfig{
		DeviceID: "rpp1", Limit: power.KW(50), Scheduler: sched,
	}, refs)
	leaf.Start()

	// Quiet instant: no cycle is collecting, changes apply immediately.
	newBands := BandConfig{CapThresholdFrac: 0.98, CapTargetFrac: 0.94, UncapThresholdFrac: 0.88}
	f.loop.Post(func() {
		if err := leaf.SetBands(newBands); err != nil {
			t.Errorf("SetBands: %v", err)
		}
		if leaf.DeferredReconfigs() != 0 {
			t.Errorf("boundary-time SetBands was deferred")
		}
		if leaf.bands != newBands {
			t.Errorf("boundary-time SetBands not applied: %+v", leaf.bands)
		}
	})

	// Mid-cycle instant: the poll at t=3s is collecting until its pulls
	// return (~2 network hops later), so a call 1 ms in lands mid-window.
	midBands := BandConfig{CapThresholdFrac: 0.97, CapTargetFrac: 0.93, UncapThresholdFrac: 0.87}
	f.loop.After(3*time.Second+time.Millisecond, func() {
		if !leaf.cycleOpen {
			t.Fatal("test instant missed the collection window")
		}
		if err := leaf.SetBands(midBands); err != nil {
			t.Errorf("SetBands: %v", err)
		}
		leaf.SetPollInterval(6 * time.Second)
		if leaf.DeferredReconfigs() != 2 {
			t.Errorf("deferred = %d, want 2", leaf.DeferredReconfigs())
		}
		// Deferred means not yet applied.
		if leaf.bands == midBands {
			t.Error("mid-cycle SetBands applied immediately")
		}
		if leaf.pollInterval != 3*time.Second {
			t.Error("mid-cycle SetPollInterval applied immediately")
		}
		// Invalid configurations are still rejected synchronously.
		if err := leaf.SetBands(BandConfig{CapThresholdFrac: 0.5, CapTargetFrac: 0.9, UncapThresholdFrac: 0.99}); err == nil {
			t.Error("invalid mid-cycle SetBands accepted")
		}
	})

	f.loop.RunUntil(20 * time.Second)
	// Both deferred changes applied at the cycle boundary.
	if leaf.bands != midBands {
		t.Errorf("deferred bands not applied: %+v", leaf.bands)
	}
	if leaf.pollInterval != 6*time.Second {
		t.Errorf("deferred poll interval not applied: %v", leaf.pollInterval)
	}
	if leaf.DeferredReconfigs() != 2 {
		t.Errorf("deferred = %d, want 2", leaf.DeferredReconfigs())
	}
	// The 6 s cadence is in effect. The tick already queued at the old
	// cadence (6 s) still fires; later ticks follow the new period:
	// polls at 3, 6, 12, 18 s.
	if got := leaf.Cycles(); got != 4 {
		t.Errorf("cycles after reconfig = %d, want 4 (polls at 3,6,12,18s)", got)
	}
}

// TestFailoverJournalHandoff runs a capping episode on the primary, crashes
// it, and checks the promoted backup adopted the primary's decision journal
// and cycle counter from the state store: the capping episode's records
// survive the failover and the backup's own records continue the sequence.
func TestFailoverJournalHandoff(t *testing.T) {
	f := newFixture(t)
	// Tight limit forces a capping episode on the primary (as in
	// TestLeafCapsOverLimit).
	refs := f.addFleet(10, "web", 0.8)
	limit := power.Watts(2800)
	store := statestore.NewStore(f.loop, "test", nil)
	primary := NewLeaf(f.loop, LeafConfig{
		DeviceID: "rpp1", Limit: limit,
		Checkpoint: store.NewWriter("rpp1", "primary"),
	}, refs)
	backup := NewLeaf(f.loop, LeafConfig{
		DeviceID: "rpp1", Limit: limit,
		Checkpoint: store.NewWriter("rpp1", "backup"),
	}, f.refs())
	f.net.Register(CtrlAddr("rpp1"), primary.Handler())
	primary.Start()
	fo := NewFailover(f.loop, f.net, []Controller{backup}, FailoverConfig{
		PingInterval: 3 * time.Second, Store: store, Alerts: f.alertSink(),
	})
	fo.Start()

	f.loop.RunUntil(60 * time.Second)
	if primary.CapEvents() == 0 {
		t.Fatal("primary never capped; episode missing")
	}
	primary.Stop()
	f.loop.RunUntil(90 * time.Second)
	if !fo.Promoted() {
		t.Fatal("backup not promoted")
	}

	handed := primary.Journal().Records()
	got := backup.Journal().Records()
	if len(got) < len(handed) {
		t.Fatalf("backup journal has %d records, primary handed %d", len(got), len(handed))
	}
	// The primary's records are the backup journal's prefix, including the
	// capping episode.
	sawCap := false
	for i, r := range handed {
		if got[i] != r {
			t.Fatalf("record %d diverges after handoff:\n  primary %v\n  backup  %v", i, r, got[i])
		}
		if r.Action == ActionCap {
			sawCap = true
		}
	}
	if !sawCap {
		t.Error("capping episode missing from handed-off journal")
	}
	// The backup's cycle counter continues the primary's sequence: its own
	// records sort after every adopted one.
	if backup.Cycles() < primary.Cycles() {
		t.Errorf("backup cycles %d below primary's %d", backup.Cycles(), primary.Cycles())
	}
	f.loop.RunUntil(120 * time.Second)
	own := backup.Journal().Records()
	last := own[len(own)-1]
	if last.Cycle <= handed[len(handed)-1].Cycle {
		t.Errorf("backup records do not continue the cycle sequence: last %d, handoff end %d",
			last.Cycle, handed[len(handed)-1].Cycle)
	}
	sawHandoff := false
	for _, a := range f.alerts {
		if a.Kind == KindPromoted {
			sawHandoff = true
		}
	}
	if !sawHandoff {
		t.Error("promotion alert does not mention the state-store adoption")
	}
}

// countingPhases is a phased controller that only counts its phases.
type countingPhases struct{ observes, acts int }

func (c *countingPhases) runObserveDecide(time.Duration) { c.observes++ }
func (c *countingPhases) runAct(time.Duration)           { c.acts++ }

// TestCohortFlushAllocs: a flush fanning a cohort over two workers
// allocates nothing — each worker's function is bound once, and the wait
// group is the scheduler's own.
func TestCohortFlushAllocs(t *testing.T) {
	s := NewCohortScheduler(simclock.NewSimLoop(), 2, nil)
	ctrls := make([]countingPhases, 5)
	for range ctrls {
		s.register()
	}
	flush := func() {
		for i := range ctrls {
			s.submit(&ctrls[i], i)
		}
		s.flush()
	}
	if n := testing.AllocsPerRun(100, flush); n != 0 {
		t.Errorf("a cohort flush over 2 workers allocates %v times, want 0", n)
	}
	for i, c := range ctrls {
		if c.observes != 101 || c.acts != 101 {
			t.Fatalf("controller %d observed %d and acted %d times, want 101 each", i, c.observes, c.acts)
		}
	}
}
