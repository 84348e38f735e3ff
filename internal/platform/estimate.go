package platform

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"dynamo/internal/noise"
	"dynamo/internal/power"
	"dynamo/internal/server"
)

// EstimationModel maps CPU utilization to estimated power for one hardware
// generation. The paper builds these for sensorless servers by sweeping
// request rate while measuring with a Yokogawa meter (§III-B, ref [17]),
// then estimates power on-line from system statistics.
type EstimationModel struct {
	generation string
	// utils and watts are the calibration curve knots, sorted by util.
	utils []float64
	watts []float64
}

// Calibrate builds an estimation model for a hardware generation by
// sweeping utilization on a reference machine and recording "meter"
// readings — the simulation analogue of the Yokogawa bench procedure.
// meterNoise adds Gaussian error to each calibration measurement.
func Calibrate(model server.Model, points int, meterNoise float64, seed int64) *EstimationModel {
	if points < 2 {
		points = 2
	}
	rng := noise.New(seed)
	em := &EstimationModel{generation: model.Name}
	for i := 0; i < points; i++ {
		u := float64(i) / float64(points-1)
		w := float64(model.PowerAt(u, 1.0)) + meterNoise*rng.NormFloat64()
		em.utils = append(em.utils, u)
		em.watts = append(em.watts, w)
	}
	return em
}

// Generation returns the generation the model was calibrated for.
func (em *EstimationModel) Generation() string { return em.generation }

// Estimate returns estimated power at the given CPU utilization via
// piecewise-linear interpolation of the calibration curve.
func (em *EstimationModel) Estimate(util float64) power.Watts {
	if len(em.utils) == 0 {
		return 0
	}
	if util <= em.utils[0] {
		return power.Watts(em.watts[0])
	}
	last := len(em.utils) - 1
	if util >= em.utils[last] {
		return power.Watts(em.watts[last])
	}
	i := sort.SearchFloat64s(em.utils, util)
	// em.utils[i-1] < util <= em.utils[i]
	u0, u1 := em.utils[i-1], em.utils[i]
	w0, w1 := em.watts[i-1], em.watts[i]
	frac := (util - u0) / (u1 - u0)
	return power.Watts(w0 + frac*(w1-w0))
}

// Estimated is the backend for servers without power sensors: reads are
// estimation-model outputs driven by live CPU utilization; capping still
// works through RAPL (all RAPL-era machines can cap; only sensors are
// missing on the oldest platforms).
type Estimated struct {
	host *server.Server
	em   *EstimationModel
	opts Options
	rng  *rand.Rand
}

// NewEstimated creates an estimation-based backend. The model must match
// the host's generation.
func NewEstimated(host *server.Server, em *EstimationModel, opts Options) (*Estimated, error) {
	if em == nil {
		return nil, ErrNoSensor
	}
	if em.Generation() != host.Model().Name {
		return nil, fmt.Errorf("platform: estimation model for %q does not fit host generation %q",
			em.Generation(), host.Model().Name)
	}
	return &Estimated{host: host, em: em, opts: opts, rng: noise.New(opts.Seed)}, nil
}

// Name implements Platform.
func (e *Estimated) Name() string { return "estimated" }

// HasSensor implements Platform.
func (e *Estimated) HasSensor() bool { return false }

// ReadPower implements Platform: an estimate from CPU utilization, with no
// breakdown beyond the total (estimation models cannot decompose).
func (e *Estimated) ReadPower() (server.Breakdown, error) {
	if e.host.Crashed() {
		return server.Breakdown{}, ErrReadFailed
	}
	if e.opts.FailureRate > 0 && e.rng.Float64() < e.opts.FailureRate {
		return server.Breakdown{}, ErrReadFailed
	}
	est := e.em.Estimate(e.host.CPUUtil())
	return server.Breakdown{Total: est}, nil
}

// SetPowerLimit implements Platform.
func (e *Estimated) SetPowerLimit(limit power.Watts) error {
	if e.host.Crashed() {
		return ErrReadFailed
	}
	e.host.SetLimit(limit)
	return nil
}

// ClearPowerLimit implements Platform.
func (e *Estimated) ClearPowerLimit() error {
	if e.host.Crashed() {
		return ErrReadFailed
	}
	e.host.ClearLimit()
	return nil
}

// PowerLimit implements Platform.
func (e *Estimated) PowerLimit() (power.Watts, bool) { return e.host.Limit() }

// CPUUtil implements Platform.
func (e *Estimated) CPUUtil() float64 { return e.host.CPUUtil() }
