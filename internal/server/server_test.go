package server

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"dynamo/internal/power"
)

func TestGenerationsCalibration(t *testing.T) {
	gens := Generations()
	w2011, h2015 := gens["westmere2011"], gens["haswell2015"]
	// Fig 1: the 2015 server's peak power is roughly double the idle and
	// much higher than the 2011 server's peak.
	if h2015.Peak <= w2011.Peak {
		t.Errorf("2015 peak %v should exceed 2011 peak %v", h2015.Peak, w2011.Peak)
	}
	if ratio := float64(h2015.Peak) / float64(w2011.Peak); ratio < 1.4 || ratio > 2.0 {
		t.Errorf("peak ratio 2015/2011 = %.2f, want ~1.6 (Fig 1)", ratio)
	}
	if w2011.TurboFreq != 1.0 {
		t.Error("2011 platform should have no turbo headroom")
	}
}

func TestLookupModel(t *testing.T) {
	if _, err := LookupModel("haswell2015"); err != nil {
		t.Fatal(err)
	}
	if _, err := LookupModel("none"); err == nil {
		t.Fatal("expected error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustModel should panic")
		}
	}()
	MustModel("none")
}

func TestPowerAtEndpoints(t *testing.T) {
	m := MustModel("haswell2015")
	if got := m.PowerAt(0, 1); got != m.Idle {
		t.Errorf("idle power = %v, want %v", got, m.Idle)
	}
	if got := m.PowerAt(1, 1); math.Abs(float64(got-m.Peak)) > 0.5 {
		t.Errorf("peak power = %v, want %v", got, m.Peak)
	}
}

func TestPowerAtMonotonicInLoad(t *testing.T) {
	m := MustModel("haswell2015")
	prev := power.Watts(-1)
	for l := 0.0; l <= 1.0; l += 0.05 {
		p := m.PowerAt(l, 1)
		if p < prev {
			t.Fatalf("power not monotonic in load at %v", l)
		}
		prev = p
	}
}

func TestTurboPowerPremium(t *testing.T) {
	// Paper §IV-B: Turbo Boost ≈ +13 % performance for ≈ +20 % power on
	// saturated CPU-bound work.
	m := MustModel("haswell2015")
	base := m.MaxPower(false)
	turbo := m.MaxPower(true)
	premium := float64(turbo-base) / float64(base)
	if premium < 0.12 || premium > 0.30 {
		t.Errorf("turbo power premium = %.2f, want ~0.20", premium)
	}
	perf := m.TurboFreq - 1.0
	if perf < 0.10 || perf > 0.16 {
		t.Errorf("turbo perf gain = %.2f, want ~0.13", perf)
	}
}

func TestFreqForPowerHonorsLimit(t *testing.T) {
	m := MustModel("haswell2015")
	for _, load := range []float64{0.2, 0.5, 0.7, 0.9, 1.0, 1.2} {
		for _, lim := range []power.Watts{120, 150, 200, 250, 300} {
			f := m.FreqForPower(lim, load, 1.0)
			if f < m.MinFreq-1e-9 || f > 1.0+1e-9 {
				t.Fatalf("freq %v out of range", f)
			}
			got := m.PowerAt(load, f)
			// Unless clamped at the floor, power must be within the limit.
			if f > m.MinFreq+1e-9 && got > lim+1 {
				t.Errorf("load=%v lim=%v: freq %v gives power %v over limit", load, lim, f, got)
			}
		}
	}
}

func TestFreqForPowerNoCapNeeded(t *testing.T) {
	m := MustModel("haswell2015")
	f := m.FreqForPower(m.Peak+50, 0.5, 1.0)
	if f != 1.0 {
		t.Errorf("generous limit should keep max freq, got %v", f)
	}
}

func TestFreqForPowerImpossibleLimit(t *testing.T) {
	m := MustModel("haswell2015")
	f := m.FreqForPower(m.Idle-10, 1.0, 1.0)
	if f != m.MinFreq {
		t.Errorf("impossible limit should clamp to MinFreq, got %v", f)
	}
}

// Property: FreqForPower never returns a frequency whose power exceeds the
// limit when the limit is achievable.
func TestFreqForPowerProperty(t *testing.T) {
	m := MustModel("haswell2015")
	f := func(loadQ, limQ uint8) bool {
		load := float64(loadQ%130) / 100
		lim := m.MinPower() + power.Watts(float64(limQ)/255*float64(m.Peak-m.MinPower()))
		fr := m.FreqForPower(lim, load, 1.0)
		if fr <= m.MinFreq+1e-9 {
			return true // clamped: limit may be unachievable
		}
		return m.PowerAt(load, fr) <= lim+power.Watts(1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func constLoad(l float64) LoadSource {
	return LoadFunc(func(time.Duration) float64 { return l })
}

func tickUntil(s *Server, from, to, step time.Duration) time.Duration {
	for now := from; now <= to; now += step {
		s.Tick(now)
	}
	return to
}

func TestServerUncappedPower(t *testing.T) {
	m := MustModel("haswell2015")
	s := New(Config{ID: "s1", Service: "web", Model: m, Source: constLoad(0.6)})
	tickUntil(s, 0, 10*time.Second, 250*time.Millisecond)
	want := m.PowerAt(0.6, 1.0)
	if math.Abs(float64(s.Power()-want)) > 1 {
		t.Errorf("power = %v, want %v", s.Power(), want)
	}
	if s.CPUUtil() < 0.55 || s.CPUUtil() > 0.65 {
		t.Errorf("util = %v", s.CPUUtil())
	}
}

// TestServerCapSettleTime reproduces the Fig 9 dynamic: after a capping
// command, power reaches the target within about two seconds.
func TestServerCapSettleTime(t *testing.T) {
	m := MustModel("haswell2015")
	s := New(Config{ID: "s1", Service: "web", Model: m, Source: constLoad(0.8)})
	step := 100 * time.Millisecond
	now := tickUntil(s, 0, 5*time.Second, step)
	p0 := s.Power()
	target := p0 - 60
	s.SetLimit(target)

	var settled time.Duration
	for ; now <= 15*time.Second; now += step {
		s.Tick(now)
		if settled == 0 && float64(s.Power()) <= float64(target)+2 {
			settled = now - 5*time.Second
		}
	}
	if settled == 0 {
		t.Fatalf("never settled to %v (at %v)", target, s.Power())
	}
	if settled > 3*time.Second {
		t.Errorf("settle time = %v, want ≈2 s", settled)
	}
	if settled < 500*time.Millisecond {
		t.Errorf("settle time = %v suspiciously instant", settled)
	}
}

func TestServerUncapRestoresPower(t *testing.T) {
	m := MustModel("haswell2015")
	s := New(Config{ID: "s1", Service: "web", Model: m, Source: constLoad(0.8)})
	step := 100 * time.Millisecond
	now := tickUntil(s, 0, 5*time.Second, step)
	p0 := s.Power()
	s.SetLimit(p0 - 60)
	now = tickUntil(s, now, now+5*time.Second, step)
	s.ClearLimit()
	if _, ok := s.Limit(); ok {
		t.Fatal("limit should be cleared")
	}
	tickUntil(s, now, now+5*time.Second, step)
	if math.Abs(float64(s.Power()-p0)) > 2 {
		t.Errorf("power after uncap = %v, want %v", s.Power(), p0)
	}
}

func TestServerCapRaisesUtil(t *testing.T) {
	m := MustModel("haswell2015")
	s := New(Config{ID: "s1", Service: "web", Model: m, Source: constLoad(0.6)})
	now := tickUntil(s, 0, 5*time.Second, 100*time.Millisecond)
	u0 := s.CPUUtil()
	s.SetLimit(s.Power() - 50)
	tickUntil(s, now, now+5*time.Second, 100*time.Millisecond)
	if s.CPUUtil() <= u0 {
		t.Errorf("capping should raise util: %v -> %v", u0, s.CPUUtil())
	}
}

func TestServerSlowdownKnee(t *testing.T) {
	// Fig 13: slowdown grows slowly below ~20 % power reduction and much
	// faster beyond.
	m := MustModel("haswell2015")
	measure := func(cut float64) float64 {
		s := New(Config{ID: "s", Service: "web", Model: m, Source: constLoad(0.7)})
		now := tickUntil(s, 0, 5*time.Second, 100*time.Millisecond)
		p0 := s.Power()
		s.SetLimit(power.Watts(float64(p0) * (1 - cut)))
		tickUntil(s, now, now+10*time.Second, 100*time.Millisecond)
		return s.Slowdown()
	}
	sd10, sd20, sd40 := measure(0.10), measure(0.20), measure(0.40)
	if sd10 > 0.25 {
		t.Errorf("slowdown at 10%% cut = %.2f, want small", sd10)
	}
	if sd20 >= sd40 {
		t.Errorf("slowdown must increase: 20%%=%.2f 40%%=%.2f", sd20, sd40)
	}
	// Past the knee the marginal slowdown per 10 % cut accelerates.
	if (sd40-sd20)/2 <= sd20-sd10 {
		t.Errorf("no knee: d(10..20)=%.3f d(20..40)/2=%.3f", sd20-sd10, (sd40-sd20)/2)
	}
}

func TestServerTurboThroughputGain(t *testing.T) {
	m := MustModel("haswell2015")
	run := func(turbo bool) float64 {
		s := New(Config{ID: "s", Service: "hadoop", Model: m,
			Source: constLoad(1.0), LoadScale: 1.3, Turbo: turbo})
		tickUntil(s, 0, 60*time.Second, time.Second)
		_, d := s.Work()
		return d
	}
	gain := run(true)/run(false) - 1
	if gain < 0.10 || gain > 0.16 {
		t.Errorf("turbo throughput gain = %.3f, want ≈0.13", gain)
	}
}

func TestServerCrashAndRestore(t *testing.T) {
	m := MustModel("haswell2015")
	s := New(Config{ID: "s", Service: "web", Model: m, Source: constLoad(0.5)})
	s.Tick(time.Second)
	s.Crash()
	s.Tick(2 * time.Second)
	if s.Power() != 0 || !s.Crashed() {
		t.Error("crashed server should draw zero")
	}
	if s.CPUUtil() != 0 || s.Slowdown() != 0 {
		t.Error("crashed server has no util/slowdown")
	}
	s.Restore()
	s.Tick(3 * time.Second)
	if s.Power() <= 0 {
		t.Error("restored server should draw power")
	}
}

func TestServerGovMaxFreq(t *testing.T) {
	m := MustModel("haswell2015")
	s := New(Config{ID: "s", Service: "search", Model: m,
		Source: constLoad(1.2), LoadScale: 1.0, GovMaxFreq: 0.8})
	tickUntil(s, 0, 10*time.Second, 250*time.Millisecond)
	if s.Freq() > 0.81 {
		t.Errorf("governor should cap freq at 0.8, got %v", s.Freq())
	}
	s.SetGovMaxFreq(0)
	s.SetTurbo(true)
	tickUntil(s, 11*time.Second, 30*time.Second, 250*time.Millisecond)
	if s.Freq() < 1.1 {
		t.Errorf("after unlock+turbo freq = %v, want ≈1.13", s.Freq())
	}
}

func TestServerResetWork(t *testing.T) {
	m := MustModel("haswell2015")
	s := New(Config{ID: "s", Service: "web", Model: m, Source: constLoad(0.5)})
	tickUntil(s, 0, 10*time.Second, time.Second)
	if o, _ := s.Work(); o == 0 {
		t.Fatal("expected offered work")
	}
	s.ResetWork()
	if o, d := s.Work(); o != 0 || d != 0 {
		t.Error("ResetWork did not clear counters")
	}
}

// Property: under any constant load and achievable limit, settled power
// never exceeds the limit.
func TestServerLimitAlwaysHonoredProperty(t *testing.T) {
	m := MustModel("haswell2015")
	f := func(loadQ, limQ uint8) bool {
		load := float64(loadQ%100)/100 + 0.01
		lim := m.MinPower() + 5 + power.Watts(float64(limQ)/255*float64(m.Peak-m.MinPower()-5))
		s := New(Config{ID: "p", Service: "web", Model: m, Source: constLoad(load)})
		now := tickUntil(s, 0, 3*time.Second, 100*time.Millisecond)
		s.SetLimit(lim)
		tickUntil(s, now, now+10*time.Second, 100*time.Millisecond)
		return float64(s.Power()) <= float64(lim)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
