package config

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"time"
)

// FlagCheck accumulates command-line validation failures so a bad
// invocation reports every problem at once rather than the first one
// per run. Daemons call the typed checks after flag.Parse and then
// fail fast on Err, keeping nonsense (negative retry budgets, zero
// lease TTLs, NaN quotas) out of the controller hierarchy and the
// sim.
//
// Zero value is ready to use:
//
//	var fc config.FlagCheck
//	fc.NonNegativeFloat("quota", *quota)
//	fc.PositiveDuration("cap-lease-ttl", *capLeaseTTL)
//	if err := fc.Err(); err != nil { ... os.Exit(2) }
type FlagCheck struct {
	errs []string
}

func (c *FlagCheck) failf(format string, args ...any) {
	c.errs = append(c.errs, fmt.Sprintf(format, args...))
}

// PositiveInt requires v > 0.
func (c *FlagCheck) PositiveInt(name string, v int) {
	if v <= 0 {
		c.failf("-%s must be > 0 (got %d)", name, v)
	}
}

// NonNegativeInt requires v >= 0.
func (c *FlagCheck) NonNegativeInt(name string, v int) {
	if v < 0 {
		c.failf("-%s must be >= 0 (got %d)", name, v)
	}
}

// PositiveFloat requires v > 0 and not NaN.
func (c *FlagCheck) PositiveFloat(name string, v float64) {
	if math.IsNaN(v) || v <= 0 {
		c.failf("-%s must be > 0 (got %v)", name, v)
	}
}

// NonNegativeFloat requires v >= 0 and not NaN.
func (c *FlagCheck) NonNegativeFloat(name string, v float64) {
	if math.IsNaN(v) || v < 0 {
		c.failf("-%s must be >= 0 (got %v)", name, v)
	}
}

// FloatInRange requires lo <= v <= hi and not NaN.
func (c *FlagCheck) FloatInRange(name string, v, lo, hi float64) {
	if math.IsNaN(v) || v < lo || v > hi {
		c.failf("-%s must be in [%v, %v] (got %v)", name, lo, hi, v)
	}
}

// Fraction requires 0 < v <= 1 and not NaN.
func (c *FlagCheck) Fraction(name string, v float64) {
	if math.IsNaN(v) || v <= 0 || v > 1 {
		c.failf("-%s must be in (0, 1] (got %v)", name, v)
	}
}

// PositiveDuration requires v > 0.
func (c *FlagCheck) PositiveDuration(name string, v time.Duration) {
	if v <= 0 {
		c.failf("-%s must be > 0 (got %v)", name, v)
	}
}

// NonNegativeDuration requires v >= 0.
func (c *FlagCheck) NonNegativeDuration(name string, v time.Duration) {
	if v < 0 {
		c.failf("-%s must be >= 0 (got %v)", name, v)
	}
}

// Err returns nil when every check passed, or one error naming every
// offending flag.
func (c *FlagCheck) Err() error {
	if len(c.errs) == 0 {
		return nil
	}
	return errors.New("invalid flags: " + strings.Join(c.errs, "; "))
}
