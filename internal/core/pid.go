package core

import (
	"time"

	"dynamo/internal/power"
)

// The PID capping algorithm is one of the "more complex power capping
// algorithms" the paper names as future work (§III-E, "Algorithm
// selection"). Instead of the three-band bang-bang control, a PID
// controller tracks a setpoint slightly below the limit and continuously
// adjusts the fleet cut, trading the three-band's simplicity for finer
// tracking when power hovers near the limit.
const (
	// pidSetpointFrac is the tracked power level as a fraction of the
	// effective limit.
	pidSetpointFrac = 0.96
	// pidKp is the proportional gain (cut watts per watt of error).
	pidKp = 0.8
	// pidKi is the integral gain (cut watts per watt-second of
	// accumulated error).
	pidKi = 0.05
	// pidUncapFrac is the fraction of the limit below which accumulated
	// caps are released.
	pidUncapFrac = 0.90
	// pidTriggerFrac is the fraction of the limit above which capping
	// engages (same top band as three-band).
	pidTriggerFrac = 0.99
)

// pidState is the controller's evolving state.
type pidState struct {
	integral float64 // watt-seconds of accumulated error
	last     time.Duration
	engaged  bool
	started  bool
}

// step consumes one aggregate reading and returns the action plus, for
// ActionCap, the target power level to plan toward.
func (p *pidState) step(now time.Duration, agg, limit power.Watts, anyCapped bool) (Action, power.Watts) {
	var dt float64
	if p.started {
		dt = (now - p.last).Seconds()
	}
	p.started = true
	p.last = now

	setpoint := float64(limit) * pidSetpointFrac
	err := float64(agg) - setpoint

	if !p.engaged {
		// Engage only when power crosses the trigger band; below it the
		// integral must not wind up.
		if float64(agg) > float64(limit)*pidTriggerFrac {
			p.engaged = true
			p.integral = 0
		} else {
			if anyCapped && float64(agg) < float64(limit)*pidUncapFrac {
				return ActionUncap, 0
			}
			return ActionNone, 0
		}
	}

	p.integral += err * dt
	// Anti-windup: the integral may not demand more than 20% of limit.
	maxI := float64(limit) * 0.20 / pidKi
	if p.integral > maxI {
		p.integral = maxI
	}
	if p.integral < -maxI {
		p.integral = -maxI
	}

	cut := pidKp*err + pidKi*p.integral
	if cut <= 0 {
		// The plant is at or below the setpoint; disengage when power
		// drains low enough to release caps.
		if anyCapped && float64(agg) < float64(limit)*pidUncapFrac {
			p.engaged = false
			p.integral = 0
			return ActionUncap, 0
		}
		return ActionNone, 0
	}
	target := power.Watts(float64(agg) - cut)
	if minT := power.Watts(float64(limit) * 0.5); target < minT {
		target = minT // sanity floor: never ask for more than a 50% cut
	}
	return ActionCap, target
}
