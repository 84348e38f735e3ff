package server

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"time"

	"dynamo/internal/power"
)

// refTick, refPowerAt and refFreqForPower are the physics step with nothing
// remembered between ticks: the RAPL slew coefficient is an exp on every
// server-tick and the model is passed by value. Production memoizes the
// coefficient per step length and must agree with this bit for bit.

func refPowerAt(m Model, load, freq float64) power.Watts {
	if freq <= 0 {
		return m.Idle
	}
	util := load / freq
	if util > 1 {
		util = 1
	}
	if util < 0 {
		util = 0
	}
	dyn := float64(m.Peak-m.Idle) * util * math.Pow(freq, m.PowerExp)
	return m.Idle + power.Watts(dyn)
}

func refFreqForPower(m Model, limit power.Watts, load, maxFreq float64) float64 {
	span := float64(m.Peak - m.Idle)
	budget := float64(limit - m.Idle)
	lo := m.MinFreq
	if maxFreq < lo {
		maxFreq = lo
	}
	if budget <= 0 {
		return lo
	}
	if refPowerAt(m, load, maxFreq) <= limit {
		return maxFreq
	}
	if load <= 0 {
		return maxFreq
	}
	p := m.PowerExp
	if load < maxFreq {
		f := math.Pow(budget/(span*load), 1/(p-1))
		if f >= load {
			return clampF(f, lo, maxFreq)
		}
	}
	return clampF(math.Pow(budget/span, 1/p), lo, maxFreq)
}

func refTick(s *Server, now time.Duration) {
	first := !s.ticked
	var dt time.Duration
	if s.ticked {
		dt = now - s.lastTick
		if dt < 0 {
			dt = 0
		}
	}
	s.lastTick = now
	s.ticked = true

	if s.crashed {
		s.draw = 0
		s.load = 0
		return
	}

	s.load = s.source.Step(now) * s.loadScale

	target := s.maxFreq()
	if s.limited {
		target = refFreqForPower(s.model, s.limit, s.load, s.maxFreq())
	}
	switch {
	case first:
		s.freq = target
	case dt > 0:
		alpha := 1 - math.Exp(-dt.Seconds()/raplTau.Seconds())
		s.freq += (target - s.freq) * alpha
	}

	s.draw = refPowerAt(s.model, s.load, s.freq)
	if s.limited && s.draw > s.limit && s.freq <= s.model.MinFreq+1e-9 {
		s.draw = refPowerAt(s.model, s.load, s.model.MinFreq)
	}

	if dt > 0 {
		sec := dt.Seconds()
		s.offeredWork += s.load * sec
		s.deliveredWork += math.Min(s.load, s.freq) * sec
	}
}

// TestSquareMatchesPow pins the identity PowerAt's p = 2 path relies on:
// f*f has the bits of math.Pow(f, 2), over a dense sweep of the operating
// range [0.3, 1.2] and a million random values in (0, 2].
func TestSquareMatchesPow(t *testing.T) {
	check := func(f float64) {
		if got, want := f*f, math.Pow(f, 2); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("f = %v: f*f = %v, math.Pow(f, 2) = %v", f, got, want)
		}
	}
	const n = 3_000_000
	for i := 0; i <= n; i++ {
		check(0.3 + 0.9*float64(i)/n)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 1_000_000; i++ {
		check(2 * (1 - rng.Float64())) // (0, 2]
	}
}

// TestTickMatchesPerTickReference drives every hardware generation through
// a first tick, 1 s and 3 s ticks, a 30 s fast-forward, the switch back to
// 1 s and two repeated timestamps, with RAPL limits set (one below the
// platform floor), changed and cleared, Turbo and the governor toggled and a
// crash and restore interleaved, so slews are in flight across every change
// of step length.
func TestTickMatchesPerTickReference(t *testing.T) {
	var ts []time.Duration
	now := time.Duration(0)
	for _, seg := range []struct {
		n  int
		dt time.Duration
	}{
		{1, 0}, {40, time.Second}, {20, 3 * time.Second}, {300, 30 * time.Second},
		{1, 0}, {90, time.Second}, {1, 0}, {10, 3 * time.Second},
	} {
		for i := 0; i < seg.n; i++ {
			now += seg.dt
			ts = append(ts, now)
		}
	}
	names := make([]string, 0, len(Generations()))
	for name := range Generations() {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			m := MustModel(name)
			mid := m.Idle + (m.Peak-m.Idle)*0.45
			cfg := Config{
				ID: "s", Service: "hadoop", Model: m, LoadScale: 1.2,
				Source: LoadFunc(func(now time.Duration) float64 { return 0.55 + 0.5*math.Sin(now.Seconds()/37) }),
			}
			got, want := New(cfg), New(cfg)
			events := map[int]func(*Server){
				20:  func(s *Server) { s.SetLimit(mid) },
				45:  func(s *Server) { s.SetTurbo(true) },
				70:  func(s *Server) { s.SetLimit(m.Idle + 5) },
				120: (*Server).Crash,
				130: (*Server).Restore,
				200: (*Server).ClearLimit,
				359: func(s *Server) { s.SetLimit(mid * 0.9) },
				365: (*Server).ClearLimit,
				380: func(s *Server) { s.SetLimit(mid) },
				400: func(s *Server) { s.SetTurbo(false) },
				420: func(s *Server) { s.SetGovMaxFreq(0.9) },
			}
			for i, now := range ts {
				if ev := events[i]; ev != nil {
					ev(got)
					ev(want)
				}
				got.Tick(now)
				refTick(want, now)
				for _, f := range []struct {
					name      string
					got, want float64
				}{
					{"freq", got.freq, want.freq},
					{"load", got.load, want.load},
					{"draw", float64(got.draw), float64(want.draw)},
					{"offered work", got.offeredWork, want.offeredWork},
					{"delivered work", got.deliveredWork, want.deliveredWork},
				} {
					if math.Float64bits(f.got) != math.Float64bits(f.want) {
						t.Fatalf("tick %d at %v: %s %v, reference %v", i, now, f.name, f.got, f.want)
					}
				}
			}
		})
	}
}
