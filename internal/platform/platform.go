// Package platform is the hardware-access layer between the Dynamo agent
// and the machine it runs on. The paper (§VI, "Design capping systems in a
// hardware-agnostic way") splits the agent into a platform-independent part
// and platform-specific backends: some server generations expose RAPL by
// writing a model-specific register (MSR) directly, others via the on-board
// node manager over IPMI; some have on-board power sensors and others need
// a utilization-based estimation model built from Yokogawa meter
// calibration (§III-B).
//
// All backends here actuate a simulated server (internal/server), but they
// reproduce the observable differences: sensor quantization and noise,
// IPMI command validation, sensor absence, and occasional read failures.
package platform

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"

	"dynamo/internal/noise"
	"dynamo/internal/power"
	"dynamo/internal/server"
)

// ErrNoSensor is returned by ReadPower when the platform has no power
// sensor and no estimation model is installed.
var ErrNoSensor = errors.New("platform: no power sensor")

// ErrReadFailed models transient sensor-firmware read failures.
var ErrReadFailed = errors.New("platform: power reading failed")

// ErrBadLimit is returned for limits outside the actuator's range.
var ErrBadLimit = errors.New("platform: power limit out of range")

// Platform is what the Dynamo agent talks to on its host.
type Platform interface {
	// Name identifies the backend ("msr", "ipmi", "estimated").
	Name() string
	// ReadPower returns the current power draw.
	ReadPower() (Reading, error)
	// SetPowerLimit enforces a total-system power budget via RAPL.
	SetPowerLimit(limit power.Watts) error
	// ClearPowerLimit removes the budget.
	ClearPowerLimit() error
	// PowerLimit returns the active limit, if any.
	PowerLimit() (power.Watts, bool)
}

// Reading is one power reading: the server's total draw, from a sensor or
// an estimation model. The §III-B breakdown (CPU, memory, AC-DC loss) is
// not read: no controller decision uses it (DESIGN.md, "Deviations").
type Reading struct {
	Total power.Watts
}

// Options configure the simulated imperfections of a backend.
type Options struct {
	// NoiseSigma is the sensor's Gaussian read noise in watts.
	NoiseSigma float64
	// Quantum is the sensor's reporting resolution in watts.
	Quantum float64
	// FailureRate is the probability that a read returns ErrReadFailed.
	FailureRate float64
	// Seed makes the noise deterministic.
	Seed int64
}

// MSR is the register-level RAPL backend used on generations that allow
// direct MSR access. It has a fine-grained on-board sensor.
type MSR struct {
	host *server.Server
	opts Options
	rng  *rand.Rand
}

// NewMSR creates an MSR backend for the host.
func NewMSR(host *server.Server, opts Options) *MSR {
	if opts.Quantum == 0 {
		opts.Quantum = 0.1
	}
	if opts.NoiseSigma == 0 {
		opts.NoiseSigma = 0.8
	}
	return &MSR{host: host, opts: opts, rng: noise.New(opts.Seed)}
}

// Name implements Platform.
func (m *MSR) Name() string { return "msr" }

// ReadPower implements Platform.
func (m *MSR) ReadPower() (Reading, error) {
	return readSensor(m.host, m.opts, m.rng)
}

// SetPowerLimit implements Platform. MSR writes accept any value; values
// below the package minimum simply pin the floor, as real RAPL does.
func (m *MSR) SetPowerLimit(limit power.Watts) error {
	if m.host.Crashed() {
		return ErrReadFailed
	}
	m.host.SetLimit(limit)
	return nil
}

// ClearPowerLimit implements Platform.
func (m *MSR) ClearPowerLimit() error {
	if m.host.Crashed() {
		return ErrReadFailed
	}
	m.host.ClearLimit()
	return nil
}

// PowerLimit implements Platform.
func (m *MSR) PowerLimit() (power.Watts, bool) { return m.host.Limit() }

// IPMI is the node-manager backend (paper refs [19], [21]): coarser sensor
// resolution and strict command validation.
type IPMI struct {
	host *server.Server
	opts Options
	rng  *rand.Rand
}

// NewIPMI creates an IPMI/node-manager backend for the host.
func NewIPMI(host *server.Server, opts Options) *IPMI {
	if opts.Quantum == 0 {
		opts.Quantum = 1.0
	}
	if opts.NoiseSigma == 0 {
		opts.NoiseSigma = 1.5
	}
	return &IPMI{host: host, opts: opts, rng: noise.New(opts.Seed)}
}

// Name implements Platform.
func (i *IPMI) Name() string { return "ipmi" }

// ReadPower implements Platform.
func (i *IPMI) ReadPower() (Reading, error) {
	return readSensor(i.host, i.opts, i.rng)
}

// SetPowerLimit implements Platform. The node manager rejects limits
// outside the platform's controllable range instead of clamping.
func (i *IPMI) SetPowerLimit(limit power.Watts) error {
	if i.host.Crashed() {
		return ErrReadFailed
	}
	model := i.host.Model()
	if limit < model.MinPower() || limit > model.MaxPower(true)+50 {
		return fmt.Errorf("%w: %v not in [%v, %v]", ErrBadLimit,
			limit, model.MinPower(), model.MaxPower(true))
	}
	i.host.SetLimit(limit)
	return nil
}

// ClearPowerLimit implements Platform.
func (i *IPMI) ClearPowerLimit() error {
	if i.host.Crashed() {
		return ErrReadFailed
	}
	i.host.ClearLimit()
	return nil
}

// PowerLimit implements Platform.
func (i *IPMI) PowerLimit() (power.Watts, bool) { return i.host.Limit() }

func readSensor(host *server.Server, opts Options, rng *rand.Rand) (Reading, error) {
	if host.Crashed() {
		return Reading{}, ErrReadFailed
	}
	if opts.FailureRate > 0 && rng.Float64() < opts.FailureRate {
		return Reading{}, ErrReadFailed
	}
	noisy := float64(host.Power()) + opts.NoiseSigma*rng.NormFloat64()
	if opts.Quantum > 0 {
		noisy = math.Round(noisy/opts.Quantum) * opts.Quantum
	}
	if noisy < 0 {
		noisy = 0
	}
	return Reading{Total: power.Watts(noisy)}, nil
}
