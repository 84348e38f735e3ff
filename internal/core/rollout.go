package core

import (
	"fmt"
	"time"

	"dynamo/internal/simclock"
)

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
	Alerts AlertFunc
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
// loop. It is loop-confined like the controllers.
type Rollout struct {
	cfg     RolloutConfig
	loop    simclock.Loop
	targets []string

	state   RolloutState
	phase   int
	applied int
}

// NewRollout creates a rollout over targets (deployment order is the
// slice order; callers typically shuffle or sort by failure domain).
func NewRollout(loop simclock.Loop, targets []string, cfg RolloutConfig) *Rollout {
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
			r.cfg.Alerts.emit(r.loop.Now(), AlertCritical, "rollout",
				"phase %q: apply to %s failed: %v; rolling back", ph.Name, target, err)
			r.rollback()
			return
		}
		r.applied++
	}
	r.cfg.Alerts.emit(r.loop.Now(), AlertInfo, "rollout",
		"phase %q applied to %d/%d targets; soaking %v", ph.Name, r.applied, len(r.targets), ph.Soak)
	r.loop.After(ph.Soak, r.afterSoak)
}

func (r *Rollout) afterSoak() {
	if r.state != RolloutRunning {
		return
	}
	if r.cfg.Healthy != nil && !r.cfg.Healthy() {
		r.cfg.Alerts.emit(r.loop.Now(), AlertCritical, "rollout",
			"health regression after phase %q; rolling back %d targets",
			r.cfg.Phases[r.phase].Name, r.applied)
		r.rollback()
		return
	}
	if r.phase == len(r.cfg.Phases)-1 {
		r.state = RolloutDone
		r.cfg.Alerts.emit(r.loop.Now(), AlertInfo, "rollout", "rollout complete (%d targets)", r.applied)
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
