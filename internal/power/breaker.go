package power

import (
	"fmt"
	"math"
	"time"
)

// TripCurve is an inverse-time breaker characteristic: under a constant
// overdraw ratio r (power / rated power), the breaker trips after
//
//	t(r) = K · (r − 1)^−A   seconds, for r > 1,
//
// and never trips for r ≤ 1. The constants are calibrated per device class
// to the manufacturer measurements in paper Fig 3 (e.g. an RPP sustains a
// 10 % overdraw for ≈17 minutes and a 40 % overdraw for ≈60 s, while an MSB
// sustains 15 % for only ≈60 s and trips on 5 % in as little as 2 minutes).
type TripCurve struct {
	// A is the curve steepness exponent. Lower-level devices have larger
	// A (steep curves: very tolerant near the rating).
	A float64
	// K is the time scale in seconds.
	K float64
}

// TripTime returns how long a constant overdraw ratio is sustained before
// the breaker trips. It returns (0, false) when ratio ≤ 1 (never trips).
func (c TripCurve) TripTime(ratio float64) (time.Duration, bool) {
	if ratio <= 1 {
		return 0, false
	}
	secs := c.K * math.Pow(ratio-1, -c.A)
	return time.Duration(secs * float64(time.Second)), true
}

// HeatRate is the rate (1/s) at which the breaker's thermal state
// accumulates under overdraw ratio r; the breaker trips when the integral
// reaches 1. For constant r this reproduces TripTime exactly.
func (c TripCurve) HeatRate(ratio float64) float64 {
	if ratio <= 1 {
		return 0
	}
	return math.Pow(ratio-1, c.A) / c.K
}

// DefaultTripCurve returns the calibrated curve for a device class.
// Calibration targets from Fig 3:
//
//	Rack: 10 % overdraw ≈ 22 min, 40 % ≈ 78 s
//	RPP:  10 % overdraw ≈ 17 min, 40 % ≈ 60 s
//	SB:   5 %  overdraw ≈ 6 min,  15 % ≈ 100 s
//	MSB:  5 %  overdraw ≈ 2 min,  15 % ≈ 60 s
func DefaultTripCurve(class DeviceClass) TripCurve {
	switch class {
	case ClassRack:
		return TripCurve{A: 2.044, K: 12.0}
	case ClassRPP:
		return TripCurve{A: 2.044, K: 9.22}
	case ClassSB:
		return TripCurve{A: 1.2, K: 10.3}
	case ClassMSB:
		return TripCurve{A: 0.631, K: 18.1}
	default:
		return TripCurve{A: 1, K: 10}
	}
}

// Breaker is a thermal circuit-breaker model. Heat accumulates while the
// observed power exceeds the rating (at the curve's HeatRate) and decays
// exponentially while under the rating. The breaker trips when heat ≥ 1.
//
// Observe must be called with monotonically non-decreasing timestamps; the
// power level is treated as constant since the previous observation, which
// matches how the simulator samples device power on a fixed cycle.
type Breaker struct {
	name   string
	class  DeviceClass
	rating Watts
	curve  TripCurve

	heat      float64
	last      time.Duration
	started   bool
	tripped   bool
	trippedAt time.Duration

	// recoveryTau is the exponential cooling time constant applied while
	// power is at or below the rating.
	recoveryTau time.Duration
}

// NewBreaker creates a breaker with the class's default trip curve.
func NewBreaker(name string, class DeviceClass, rating Watts) *Breaker {
	return &Breaker{
		name:        name,
		class:       class,
		rating:      rating,
		curve:       DefaultTripCurve(class),
		recoveryTau: 5 * time.Minute,
	}
}

// Name returns the breaker's identifier.
func (b *Breaker) Name() string { return b.name }

// Class returns the device class the breaker protects.
func (b *Breaker) Class() DeviceClass { return b.class }

// Rating returns the breaker's rated power.
func (b *Breaker) Rating() Watts { return b.rating }

// Curve returns the breaker's trip curve.
func (b *Breaker) Curve() TripCurve { return b.curve }

// Heat returns the current thermal state in [0, 1]; 1 means tripped.
func (b *Breaker) Heat() float64 { return b.heat }

// Tripped reports whether the breaker has tripped.
func (b *Breaker) Tripped() bool { return b.tripped }

// TrippedAt returns the time of the trip; valid only if Tripped.
func (b *Breaker) TrippedAt() time.Duration { return b.trippedAt }

// Reset closes a tripped breaker and clears thermal state, modelling a
// manual reset after an outage.
func (b *Breaker) Reset() {
	b.tripped = false
	b.heat = 0
	b.started = false
}

// Observe advances the thermal model to time now with the given power draw
// held since the previous observation. It returns true if this observation
// caused the breaker to trip. Observing a tripped breaker is a no-op.
func (b *Breaker) Observe(draw Watts, now time.Duration) bool {
	if b.tripped {
		return false
	}
	if !b.started {
		b.started = true
		b.last = now
		return false
	}
	dt := now - b.last
	if dt < 0 {
		panic(fmt.Sprintf("power: breaker %s observed non-monotonic time %v < %v", b.name, now, b.last))
	}
	b.last = now
	if dt == 0 {
		return false
	}
	secs := dt.Seconds()
	ratio := float64(draw) / float64(b.rating)
	if ratio > 1 {
		b.heat += b.curve.HeatRate(ratio) * secs
		if b.heat >= 1 {
			b.heat = 1
			b.tripped = true
			b.trippedAt = now
			return true
		}
	} else if b.heat != 0 {
		// Exponential cooling toward zero (a cold breaker stays at 0).
		b.heat *= math.Exp(-secs / b.recoveryTau.Seconds())
		if b.heat < 1e-12 {
			b.heat = 0
		}
	}
	return false
}

// TimeToTrip estimates, from the current thermal state, how long the given
// constant draw can be sustained before the breaker trips. It returns
// (0, false) if the draw never trips the breaker.
func (b *Breaker) TimeToTrip(draw Watts) (time.Duration, bool) {
	ratio := float64(draw) / float64(b.rating)
	rate := b.curve.HeatRate(ratio)
	if rate <= 0 {
		return 0, false
	}
	remaining := 1 - b.heat
	if remaining <= 0 {
		return 0, true
	}
	secs := remaining / rate
	return time.Duration(secs * float64(time.Second)), true
}
