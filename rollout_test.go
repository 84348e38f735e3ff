package dynamo_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"dynamo"
)

// The staged rollout of the operations example, tested as the procedure
// an operator would run over the public API.

func rolloutTargets(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("srv%03d", i)
	}
	return out
}

func TestRolloutHappyPath(t *testing.T) {
	loop := dynamo.NewSimLoop()
	applied := map[string]bool{}
	var alerts []RolloutAlert
	r := NewRollout(loop, rolloutTargets(200), RolloutConfig{
		Apply:   func(tg string) error { applied[tg] = true; return nil },
		Healthy: func() bool { return true },
		Alerts:  func(a RolloutAlert) { alerts = append(alerts, a) },
	})
	r.Start()
	if r.State() != RolloutRunning {
		t.Fatalf("state = %v", r.State())
	}
	// Canary phase: 1% of 200 = 2 targets.
	if r.Applied() != 2 {
		t.Fatalf("canary applied = %d, want 2", r.Applied())
	}
	loop.RunUntil(10 * time.Minute) // canary soak
	if r.Applied() != 20 {
		t.Fatalf("early applied = %d, want 20", r.Applied())
	}
	loop.RunUntil(3 * time.Hour)
	if r.State() != RolloutDone {
		t.Fatalf("state = %v, want done", r.State())
	}
	if r.Applied() != 200 {
		t.Errorf("applied = %d", r.Applied())
	}
	if len(applied) != 200 {
		t.Errorf("apply calls = %d", len(applied))
	}
	if len(alerts) < 5 { // four phase notices + completion
		t.Errorf("alerts = %d", len(alerts))
	}
}

func TestRolloutHaltsOnHealthRegression(t *testing.T) {
	loop := dynamo.NewSimLoop()
	healthy := true
	reverted := map[string]int{}
	r := NewRollout(loop, rolloutTargets(100), RolloutConfig{
		Apply:   func(string) error { return nil },
		Revert:  func(tg string) { reverted[tg]++ },
		Healthy: func() bool { return healthy },
	})
	r.Start()
	loop.RunUntil(10 * time.Minute) // canary passes, early applied (10)
	if r.Applied() != 10 {
		t.Fatalf("applied = %d", r.Applied())
	}
	healthy = false // regression appears during the early soak
	loop.RunUntil(50 * time.Minute)
	if r.State() != RolloutHalted {
		t.Fatalf("state = %v, want halted", r.State())
	}
	if len(reverted) != 10 {
		t.Errorf("reverted = %d targets, want 10", len(reverted))
	}
	if r.Applied() != 0 {
		t.Errorf("applied after rollback = %d", r.Applied())
	}
	// Halted rollouts stay halted.
	loop.RunUntil(5 * time.Hour)
	if r.State() != RolloutHalted {
		t.Error("rollout resumed after halt")
	}
}

func TestRolloutHaltsOnApplyError(t *testing.T) {
	loop := dynamo.NewSimLoop()
	reverted := 0
	n := 0
	r := NewRollout(loop, rolloutTargets(100), RolloutConfig{
		Apply: func(string) error {
			n++
			if n == 5 {
				return errors.New("deploy failed")
			}
			return nil
		},
		Revert: func(string) { reverted++ },
	})
	r.Start()
	loop.RunUntil(15 * time.Minute) // failure happens in the early phase
	if r.State() != RolloutHalted {
		t.Fatalf("state = %v", r.State())
	}
	if reverted != 4 { // the four successfully applied before the failure
		t.Errorf("reverted = %d, want 4", reverted)
	}
}

func TestRolloutCustomPhases(t *testing.T) {
	loop := dynamo.NewSimLoop()
	r := NewRollout(loop, rolloutTargets(10), RolloutConfig{
		Phases: []RolloutPhase{
			{Name: "all", Fraction: 1.0, Soak: time.Minute},
		},
		Apply: func(string) error { return nil },
	})
	r.Start()
	if r.Applied() != 10 {
		t.Fatalf("applied = %d", r.Applied())
	}
	loop.RunUntil(time.Minute)
	if r.State() != RolloutDone {
		t.Fatalf("state = %v", r.State())
	}
}

func TestRolloutFinalPhaseCoversAll(t *testing.T) {
	// Rounding must not leave stragglers: 3 targets, default phases.
	loop := dynamo.NewSimLoop()
	r := NewRollout(loop, rolloutTargets(3), RolloutConfig{
		Apply: func(string) error { return nil },
	})
	r.Start()
	loop.RunUntil(4 * time.Hour)
	if r.State() != RolloutDone || r.Applied() != 3 {
		t.Fatalf("state=%v applied=%d", r.State(), r.Applied())
	}
}

func TestRolloutStartIdempotent(t *testing.T) {
	loop := dynamo.NewSimLoop()
	applies := 0
	r := NewRollout(loop, rolloutTargets(100), RolloutConfig{
		Apply: func(string) error { applies++; return nil },
	})
	r.Start()
	first := applies
	r.Start()
	if applies != first {
		t.Error("second Start re-applied")
	}
}

func TestRolloutStateString(t *testing.T) {
	for s, want := range map[RolloutState]string{
		RolloutIdle: "idle", RolloutRunning: "running",
		RolloutDone: "done", RolloutHalted: "halted",
	} {
		if s.String() != want {
			t.Errorf("%d = %q", int(s), s.String())
		}
	}
	if RolloutState(9).String() == "" {
		t.Error("unknown state string")
	}
}
