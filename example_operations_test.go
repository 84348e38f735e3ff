package dynamo_test

import (
	"fmt"
	"sort"
	"time"

	"dynamo"
)

// Example_operations runs the paper's §VI machinery in one scenario: fleet
// power monitoring with stranded-power reports, a leaf restarting a
// crashed agent, controller primary/backup failover, and a staged rollout
// of a controller configuration change that halts and rolls back on a
// health regression.
func Example_operations() {
	spec := dynamo.DefaultDatacenterSpec().Scale(240)
	s, err := dynamo.NewSimulation(dynamo.SimConfig{
		Spec: spec, Seed: 5, EnableDynamo: true,
		QuarantineThreshold: 2,
	})
	if err != nil {
		panic(err)
	}
	var leaves []dynamo.NodeID
	for _, id := range s.Hierarchy.Devices() {
		if s.Hierarchy.Leaf(id) != nil {
			leaves = append(leaves, id)
		}
	}

	// --- Monitoring: observe the fleet while it runs.
	mon := dynamo.NewPowerMonitor(dynamo.MonitorConfig{})
	for i := 0; i < 20; i++ {
		s.Run(90 * time.Second)
		mon.Observe(s.Loop.Now(), s.Observations())
	}
	fmt.Println("== monitoring ==")
	stranded := mon.StrandedByClass()
	classes := make([]dynamo.DeviceClass, 0, len(stranded))
	for class := range stranded {
		classes = append(classes, class)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	for _, class := range classes {
		fmt.Printf("stranded power at %-5v %v\n", class, stranded[class])
	}
	for _, h := range mon.TopConsumers(2 /* RPP */, 3) {
		fmt.Printf("top consumer: %-28s %v of %v\n", h.Device, h.PeakPower, h.Limit)
	}

	// --- Agent restart: the paper's watchdog is each leaf's quarantine.
	// Crash an agent (its endpoint goes away, so pulls are refused): its
	// leaf quarantines it and restarts it, and the next half-open probe
	// re-admits it.
	fmt.Println("\n== agent restart ==")
	for _, id := range leaves {
		s.Hierarchy.Leaf(id).SetRestart(s.RestartAgent)
	}
	seen := len(s.Alerts)
	s.Net.Unregister(dynamo.AgentAddr(string(s.Topo.Servers()[3].ID)))
	s.Run(time.Minute)
	for _, a := range s.Alerts[seen:] {
		fmt.Println(a)
	}

	// --- Failover: a backup leaf for the first row takes over when the
	// primary stops answering its health probes.
	fmt.Println("\n== primary/backup failover ==")
	row := leaves[0]
	var refs []dynamo.AgentRef
	for _, srv := range s.Topo.ServersUnder(row) {
		id := string(srv.ID)
		refs = append(refs, dynamo.AgentRef{ServerID: id, Service: srv.Service,
			Generation: srv.Generation, Client: s.Net.Dial(dynamo.AgentAddr(id))})
	}
	backup := dynamo.NewLeafController(s.Loop, dynamo.LeafConfig{
		DeviceID: string(row), Limit: s.Breakers[row].Rating(),
	}, refs)
	fo := dynamo.NewFailover(s.Loop, s.Net, []dynamo.Controller{backup}, dynamo.FailoverConfig{
		Alerts: func(a dynamo.Alert) { fmt.Println(a) },
	})
	fo.Start()
	s.Run(30 * time.Second)
	s.Hierarchy.Leaf(row).Stop() // the primary crashes
	s.Run(30 * time.Second)
	fmt.Printf("backup promoted: %v, %d cycles since\n", fo.Promoted(), backup.Cycles())

	// --- Staged rollout: deploy a band-config change to every leaf, with
	// a health regression appearing mid-rollout.
	fmt.Println("\n== staged rollout ==")
	targets := make([]string, len(leaves))
	for i, id := range leaves {
		targets[i] = string(id)
	}
	healthy := true
	applied := 0
	ro := NewRollout(s.Loop, targets, RolloutConfig{
		Phases: []RolloutPhase{
			{Name: "canary", Fraction: 0.25, Soak: time.Minute},
			{Name: "wide", Fraction: 1.0, Soak: time.Minute},
		},
		Apply: func(tg string) error {
			applied++
			return s.Hierarchy.Leaf(dynamo.NodeID(tg)).SetBands(dynamo.BandConfig{
				CapThresholdFrac: 0.98, CapTargetFrac: 0.94, UncapThresholdFrac: 0.89,
			})
		},
		Revert: func(tg string) {
			_ = s.Hierarchy.Leaf(dynamo.NodeID(tg)).SetBands(dynamo.DefaultBandConfig())
		},
		Healthy: func() bool { return healthy },
		Alerts:  func(a RolloutAlert) { fmt.Println(a) },
	})
	ro.Start()
	s.Run(30 * time.Second)
	healthy = false // a regression shows up during the canary soak
	s.Run(5 * time.Minute)
	fmt.Printf("rollout state: %v (config reverted on all %d applied targets)\n",
		ro.State(), applied)

	// Output:
	// == monitoring ==
	// stranded power at MSB   2.458 MW
	// stranded power at SB    1.208 MW
	// stranded power at RPP   337.72 kW
	// stranded power at Rack  57.21 kW
	// top consumer: dc1/msb1/sb1/rpp1            22.99 kW of 190.00 kW
	// top consumer: dc1/msb1/sb1/rpp2            18.12 kW of 190.00 kW
	//
	// == agent restart ==
	// [30m3.004s] warning dc1/msb1/sb1/rpp1: agent dc1/msb1/sb1/rpp1/rack01/srv00004 quarantined after 2 consecutive failed pulls; estimating until a probe succeeds
	// [30m3.004s] warning dc1/msb1/sb1/rpp1: agent dc1/msb1/sb1/rpp1/rack01/srv00004 quarantined; restarting it
	// [30m9.004s] info dc1/msb1/sb1/rpp1: agent dc1/msb1/sb1/rpp1/rack01/srv00004 re-admitted after successful probe
	//
	// == primary/backup failover ==
	// [31m36.105337329s] critical dc1/msb1/sb1/rpp1: primary controller unresponsive for 3 probes; backup promoted with fresh state (no store)
	// backup promoted: true, 7 cycles since
	//
	// == staged rollout ==
	// [32m0s] info rollout: phase "canary" applied to 1/2 targets; soaking 1m0s
	// [33m0s] critical rollout: health regression after phase "canary"; rolling back 1 targets
	// rollout state: halted (config reverted on all 1 applied targets)
}

// RolloutPhase is one stage of a staged deployment.
type RolloutPhase struct {
	Name string
	// Fraction is the cumulative fraction of targets covered once this
	// phase completes.
	Fraction float64
	// Soak is how long to observe health before advancing.
	Soak time.Duration
}

// DefaultRolloutPhases returns the four-phase staged roll-out the paper
// describes for agent and control-logic changes (§VI: "we use a four-
// phase staged roll-out ... so any serious issues will be captured in
// early phases before going wide").
func DefaultRolloutPhases() []RolloutPhase {
	return []RolloutPhase{
		{Name: "canary", Fraction: 0.01, Soak: 10 * time.Minute},
		{Name: "early", Fraction: 0.10, Soak: 30 * time.Minute},
		{Name: "half", Fraction: 0.50, Soak: time.Hour},
		{Name: "wide", Fraction: 1.00, Soak: time.Hour},
	}
}

// RolloutConfig configures a staged rollout.
type RolloutConfig struct {
	// Phases defaults to DefaultRolloutPhases.
	Phases []RolloutPhase
	// Apply deploys the change to one target (an agent host or a
	// controller instance). An error halts the rollout immediately.
	Apply func(target string) error
	// Revert undoes the change on one target during rollback.
	Revert func(target string)
	// Healthy gates phase advancement: consulted after each phase's
	// soak. Returning false halts and rolls back.
	Healthy func() bool
	// Alerts receives rollout lifecycle events.
	Alerts func(RolloutAlert)
}

// RolloutAlert is one rollout lifecycle event, read like a controller's
// alert.
type RolloutAlert struct {
	Time  time.Duration
	Level dynamo.AlertLevel
	Msg   string
}

// String implements fmt.Stringer.
func (a RolloutAlert) String() string {
	return fmt.Sprintf("[%v] %s rollout: %s", a.Time, a.Level, a.Msg)
}

// RolloutState describes rollout progress.
type RolloutState int

const (
	// RolloutIdle means Start has not been called.
	RolloutIdle RolloutState = iota
	// RolloutRunning means phases are in progress.
	RolloutRunning
	// RolloutDone means all phases completed healthily.
	RolloutDone
	// RolloutHalted means a failure or health regression stopped the
	// rollout and applied targets were reverted.
	RolloutHalted
)

// String implements fmt.Stringer.
func (s RolloutState) String() string {
	switch s {
	case RolloutIdle:
		return "idle"
	case RolloutRunning:
		return "running"
	case RolloutDone:
		return "done"
	case RolloutHalted:
		return "halted"
	default:
		return fmt.Sprintf("RolloutState(%d)", int(s))
	}
}

// Rollout executes a staged deployment over a target list on an event
// loop, and is confined to it like the controllers.
type Rollout struct {
	cfg     RolloutConfig
	loop    dynamo.Loop
	targets []string

	state   RolloutState
	phase   int
	applied int
}

// NewRollout creates a rollout over targets (deployment order is the
// slice order; callers typically shuffle or sort by failure domain).
func NewRollout(loop dynamo.Loop, targets []string, cfg RolloutConfig) *Rollout {
	if len(cfg.Phases) == 0 {
		cfg.Phases = DefaultRolloutPhases()
	}
	return &Rollout{cfg: cfg, loop: loop, targets: targets}
}

// State returns the rollout state.
func (r *Rollout) State() RolloutState { return r.state }

// Applied returns how many targets currently run the change.
func (r *Rollout) Applied() int { return r.applied }

// Start begins phase one. Calling Start twice is a no-op.
func (r *Rollout) Start() {
	if r.state != RolloutIdle {
		return
	}
	r.state = RolloutRunning
	r.runPhase()
}

func (r *Rollout) alert(level dynamo.AlertLevel, format string, args ...any) {
	if r.cfg.Alerts != nil {
		r.cfg.Alerts(RolloutAlert{Time: r.loop.Now(), Level: level, Msg: fmt.Sprintf(format, args...)})
	}
}

func (r *Rollout) runPhase() {
	if r.state != RolloutRunning {
		return
	}
	ph := r.cfg.Phases[r.phase]
	goal := int(float64(len(r.targets)) * ph.Fraction)
	if goal < 1 && ph.Fraction > 0 && len(r.targets) > 0 {
		goal = 1 // a canary phase always covers at least one target
	}
	if r.phase == len(r.cfg.Phases)-1 {
		goal = len(r.targets) // final phase always covers everyone
	}
	for r.applied < goal {
		target := r.targets[r.applied]
		if err := r.cfg.Apply(target); err != nil {
			r.alert(dynamo.AlertCritical, "phase %q: apply to %s failed: %v; rolling back", ph.Name, target, err)
			r.rollback()
			return
		}
		r.applied++
	}
	r.alert(dynamo.AlertInfo, "phase %q applied to %d/%d targets; soaking %v", ph.Name, r.applied, len(r.targets), ph.Soak)
	r.loop.After(ph.Soak, r.afterSoak)
}

func (r *Rollout) afterSoak() {
	if r.state != RolloutRunning {
		return
	}
	if r.cfg.Healthy != nil && !r.cfg.Healthy() {
		r.alert(dynamo.AlertCritical, "health regression after phase %q; rolling back %d targets",
			r.cfg.Phases[r.phase].Name, r.applied)
		r.rollback()
		return
	}
	if r.phase == len(r.cfg.Phases)-1 {
		r.state = RolloutDone
		r.alert(dynamo.AlertInfo, "rollout complete (%d targets)", r.applied)
		return
	}
	r.phase++
	r.runPhase()
}

func (r *Rollout) rollback() {
	r.state = RolloutHalted
	if r.cfg.Revert != nil {
		for i := r.applied - 1; i >= 0; i-- {
			r.cfg.Revert(r.targets[i])
		}
	}
	r.applied = 0
}
