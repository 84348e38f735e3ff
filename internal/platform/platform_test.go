package platform

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
	"time"

	"dynamo/internal/noise"
	"dynamo/internal/power"
	"dynamo/internal/server"
)

func newHost(load float64) *server.Server {
	s := server.New(server.Config{
		ID: "h", Service: "web",
		Model:  server.MustModel("haswell2015"),
		Source: server.LoadFunc(func(time.Duration) float64 { return load }),
	})
	for now := time.Duration(0); now <= 5*time.Second; now += 250 * time.Millisecond {
		s.Tick(now)
	}
	return s
}

func TestMSRReadPower(t *testing.T) {
	host := newHost(0.6)
	p := NewMSR(host, Options{Seed: 1})
	b, err := p.ReadPower()
	if err != nil {
		t.Fatal(err)
	}
	truth := float64(host.Power())
	if math.Abs(float64(b.Total)-truth) > 5 {
		t.Errorf("sensor read %v far from truth %v", b.Total, truth)
	}
	if b.CPU <= 0 || b.Memory <= 0 {
		t.Error("breakdown should be populated")
	}
	if !p.HasSensor() || p.Name() != "msr" {
		t.Error("MSR identity wrong")
	}
}

// TestSensorReadsFollowSeedStream: a backend's readings are its seed's
// noise stream from the first draw on, and a write draws nothing from it.
func TestSensorReadsFollowSeedStream(t *testing.T) {
	host := newHost(0.6)
	for _, c := range []struct {
		p            Platform
		sigma, quant float64
	}{
		{NewMSR(host, Options{Seed: 9}), 0.8, 0.1},
		{NewIPMI(host, Options{Seed: 9}), 1.5, 1.0},
	} {
		src := noise.NewStream(9)
		ref := rand.New(&src)
		for i := 0; i < 4; i++ {
			if err := c.p.SetPowerLimit(host.Power() + 100); err != nil {
				t.Fatal(err)
			}
			if err := c.p.ClearPowerLimit(); err != nil {
				t.Fatal(err)
			}
			b, err := c.p.ReadPower()
			if err != nil {
				t.Fatal(err)
			}
			want := math.Round((float64(host.Power())+c.sigma*ref.NormFloat64())/c.quant) * c.quant
			if float64(b.Total) != want {
				t.Fatalf("%s read %d: %v, want %v from the seed's stream", c.p.Name(), i, float64(b.Total), want)
			}
		}
	}
}

func TestMSRSetAndClearLimit(t *testing.T) {
	host := newHost(0.8)
	p := NewMSR(host, Options{Seed: 1})
	if err := p.SetPowerLimit(200); err != nil {
		t.Fatal(err)
	}
	if lim, ok := p.PowerLimit(); !ok || lim != 200 {
		t.Errorf("limit = %v, %v", lim, ok)
	}
	if err := p.ClearPowerLimit(); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.PowerLimit(); ok {
		t.Error("limit should be cleared")
	}
}

func TestIPMIValidatesLimit(t *testing.T) {
	host := newHost(0.8)
	p := NewIPMI(host, Options{Seed: 1})
	if err := p.SetPowerLimit(5); !errors.Is(err, ErrBadLimit) {
		t.Errorf("tiny limit should be rejected, got %v", err)
	}
	if err := p.SetPowerLimit(10000); !errors.Is(err, ErrBadLimit) {
		t.Errorf("huge limit should be rejected, got %v", err)
	}
	if err := p.SetPowerLimit(250); err != nil {
		t.Errorf("valid limit rejected: %v", err)
	}
	if p.Name() != "ipmi" || !p.HasSensor() {
		t.Error("IPMI identity wrong")
	}
}

func TestIPMICoarserThanMSR(t *testing.T) {
	host := newHost(0.6)
	msr := NewMSR(host, Options{Seed: 2})
	ipmi := NewIPMI(host, Options{Seed: 2})
	bm, _ := msr.ReadPower()
	bi, _ := ipmi.ReadPower()
	// IPMI quantizes to 1 W.
	if got := math.Mod(float64(bi.Total), 1.0); got > 1e-9 && got < 1-1e-9 {
		t.Errorf("IPMI read %v not integer-quantized", bi.Total)
	}
	_ = bm
}

func TestReadFailureInjection(t *testing.T) {
	host := newHost(0.6)
	p := NewMSR(host, Options{Seed: 3, FailureRate: 1.0})
	if _, err := p.ReadPower(); !errors.Is(err, ErrReadFailed) {
		t.Errorf("expected ErrReadFailed, got %v", err)
	}
}

func TestCrashedHostFailsEverything(t *testing.T) {
	host := newHost(0.6)
	host.Crash()
	for _, p := range []Platform{
		NewMSR(host, Options{Seed: 4}),
		NewIPMI(host, Options{Seed: 4}),
	} {
		if _, err := p.ReadPower(); err == nil {
			t.Errorf("%s: read on crashed host should fail", p.Name())
		}
		if err := p.SetPowerLimit(250); err == nil {
			t.Errorf("%s: cap on crashed host should fail", p.Name())
		}
		if err := p.ClearPowerLimit(); err == nil {
			t.Errorf("%s: uncap on crashed host should fail", p.Name())
		}
	}
}

func TestCalibrateAndEstimate(t *testing.T) {
	model := server.MustModel("westmere2011")
	em := Calibrate(model, 11, 0, 5)
	for _, u := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		got := em.Estimate(u)
		want := model.PowerAt(u, 1.0)
		if math.Abs(float64(got-want)) > 2 {
			t.Errorf("estimate(%v) = %v, want %v", u, got, want)
		}
	}
	if em.Generation() != "westmere2011" {
		t.Error("generation mismatch")
	}
}

func TestEstimateClampsOutOfRange(t *testing.T) {
	em := Calibrate(server.MustModel("westmere2011"), 5, 0, 5)
	lo, hi := em.Estimate(-0.5), em.Estimate(1.5)
	if lo != em.Estimate(0) || hi != em.Estimate(1) {
		t.Error("out-of-range utils should clamp to curve endpoints")
	}
}

// Property: estimation is monotone in utilization for a noise-free
// calibration (power increases with load).
func TestEstimateMonotoneProperty(t *testing.T) {
	em := Calibrate(server.MustModel("haswell2015"), 21, 0, 7)
	f := func(a, b uint8) bool {
		ua, ub := float64(a)/255, float64(b)/255
		if ua > ub {
			ua, ub = ub, ua
		}
		return em.Estimate(ua) <= em.Estimate(ub)+power.Watts(1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEstimatedBackend(t *testing.T) {
	host := newHost(0.6)
	em := Calibrate(host.Model(), 11, 1.0, 6)
	p, err := NewEstimated(host, em, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if p.HasSensor() {
		t.Error("estimated backend must report no sensor")
	}
	b, err := p.ReadPower()
	if err != nil {
		t.Fatal(err)
	}
	truth := float64(host.Power())
	if math.Abs(float64(b.Total)-truth)/truth > 0.10 {
		t.Errorf("estimate %v deviates >10%% from truth %v", b.Total, truth)
	}
	// Capping still works without a sensor.
	if err := p.SetPowerLimit(200); err != nil {
		t.Fatal(err)
	}
	if lim, ok := host.Limit(); !ok || lim != 200 {
		t.Error("estimated backend did not actuate RAPL")
	}
	if err := p.ClearPowerLimit(); err != nil {
		t.Fatal(err)
	}
}

func TestEstimatedRejectsWrongGeneration(t *testing.T) {
	host := newHost(0.6) // haswell2015
	em := Calibrate(server.MustModel("westmere2011"), 5, 0, 6)
	if _, err := NewEstimated(host, em, Options{}); err == nil {
		t.Fatal("generation mismatch should be rejected")
	}
	if _, err := NewEstimated(host, nil, Options{}); !errors.Is(err, ErrNoSensor) {
		t.Fatalf("nil model should be ErrNoSensor, got %v", err)
	}
}

func TestEstimatedTracksCapping(t *testing.T) {
	// After capping, utilization rises; the estimator (driven by util at
	// nominal-frequency calibration) is expected to drift from truth —
	// but must still move in a sane range. This documents the estimation
	// error mode the paper tolerates and cross-checks with breaker
	// readings (§VI).
	host := newHost(0.7)
	em := Calibrate(host.Model(), 11, 0, 7)
	p, _ := NewEstimated(host, em, Options{Seed: 7})
	p.SetPowerLimit(220)
	for now := 6 * time.Second; now <= 15*time.Second; now += 250 * time.Millisecond {
		host.Tick(now)
	}
	b, err := p.ReadPower()
	if err != nil {
		t.Fatal(err)
	}
	if b.Total < 100 || b.Total > 400 {
		t.Errorf("estimate %v outside plausible range", b.Total)
	}
}
