package workload

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"time"

	"dynamo/internal/noise"
)

// refShared, refGen and refStep are the utilization process with nothing
// computed per tick or per service: every server-step evaluates its own
// exp, sqrt, mod and sin. Production computes those once per service per
// tick (Shared.advance) and must agree with this bit for bit, draw for
// draw.

// refRand is the reference's draw source: math/rand/v2 over the seed's
// noise.Stream.
func refRand(seed int64) *rand.Rand {
	s := noise.NewStream(seed)
	return rand.New(&s)
}

type refOU struct{ x, sigma, tau float64 }

func (p *refOU) step(dtSec float64, rng *rand.Rand) float64 {
	if p.tau <= 0 || p.sigma == 0 {
		return 0
	}
	a := math.Exp(-dtSec / p.tau)
	p.x = p.x*a + p.sigma*math.Sqrt(1-a*a)*rng.NormFloat64()
	return p.x
}

type refShared struct {
	profile    Profile
	rng        *rand.Rand
	common     refOU
	last       time.Duration
	started    bool
	loadFactor float64
	batchPhase float64
}

func newRefShared(p Profile, seed int64) *refShared {
	rng := refRand(seed)
	return &refShared{
		profile:    p,
		rng:        rng,
		common:     refOU{sigma: p.CommonSigma, tau: p.CommonTau.Seconds()},
		loadFactor: 1.0,
		batchPhase: rng.Float64(),
	}
}

func (s *refShared) advance(now time.Duration) {
	if !s.started {
		s.started = true
		s.last = now
		return
	}
	if now <= s.last {
		return
	}
	dt := (now - s.last).Seconds()
	s.last = now
	s.common.step(dt, s.rng)
}

func (s *refShared) base(now time.Duration) float64 {
	p := s.profile
	var det float64
	switch p.Pattern {
	case PatternDiurnal, PatternFlat:
		dayFrac := math.Mod(now.Hours(), 24) / 24
		det = p.BaseUtil + p.DiurnalAmp*math.Sin(2*math.Pi*(dayFrac-7.0/24))
	case PatternBatch:
		det = p.BaseUtil
	}
	return det * s.loadFactor
}

type refGen struct {
	shared     *refShared
	rng        *rand.Rand
	local      refOU
	last       time.Duration
	started    bool
	spikeUntil time.Duration
	spikeMag   float64
	batchPhase float64
	extra      float64
}

func newRefGen(shared *refShared, seed int64) *refGen {
	rng := refRand(seed)
	return &refGen{
		shared:     shared,
		rng:        rng,
		local:      refOU{sigma: shared.profile.LocalSigma, tau: shared.profile.LocalTau.Seconds()},
		batchPhase: shared.batchPhase + (rng.Float64()-0.5)*0.05,
	}
}

func (g *refGen) refStep(now time.Duration) float64 {
	p := g.shared.profile
	g.shared.advance(now)
	var dt float64
	if !g.started {
		g.started = true
		g.last = now
	} else if now > g.last {
		dt = (now - g.last).Seconds()
		g.last = now
	}
	local := g.local.step(dt, g.rng)

	if now >= g.spikeUntil && p.SpikesPerHour > 0 && dt > 0 {
		pStart := p.SpikesPerHour * dt / 3600
		if g.rng.Float64() < pStart {
			mag := p.SpikeMag + p.SpikeMagSigma*g.rng.NormFloat64()
			if mag < 0 {
				mag = 0
			}
			g.spikeMag = mag
			dur := time.Duration(g.rng.ExpFloat64() * float64(p.SpikeDur))
			g.spikeUntil = now + dur
		}
	}
	spike := 0.0
	if now < g.spikeUntil {
		spike = g.spikeMag
	}

	u := g.shared.base(now) + g.shared.common.x + local + spike + g.extra

	if p.Pattern == PatternBatch && p.BatchPeriod > 0 {
		cyc := math.Mod(now.Seconds()/p.BatchPeriod.Seconds()+g.batchPhase, 1)
		if cyc > p.BatchDuty {
			u -= 0.25
		} else {
			u += 0.10
		}
	}

	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}

// refSchedule is the timestamps of one run: a first step, 1 s and 3 s
// ticks, a 30 s fast-forward long enough for spikes to start, the switch
// back to 1 s that every controlled workload makes, and two repeated
// timestamps (dt == 0).
func refSchedule(start time.Duration) []time.Duration {
	ts := []time.Duration{start}
	for _, seg := range []struct {
		n  int
		dt time.Duration
	}{
		{40, time.Second}, {20, 3 * time.Second}, {300, 30 * time.Second},
		{1, 0}, {90, time.Second}, {1, 0}, {10, 3 * time.Second},
	} {
		for i := 0; i < seg.n; i++ {
			ts = append(ts, ts[len(ts)-1]+seg.dt)
		}
	}
	return ts
}

// TestStepMatchesPerServerReference runs every profile through
// refSchedule with load-factor and extra-load events, in the simulator's
// mode (Advance before the steps of a tick) and standalone (no Advance:
// the first Step of a timestamp advances the shared state). Generator 0
// and 1 step every timestamp, generator 2 takes its first step late, and
// generator 3 steps every third timestamp and one behind, so neither its
// dt nor its now ever matches the service's.
func TestStepMatchesPerServerReference(t *testing.T) {
	names := make([]string, 0, len(Profiles()))
	for name := range Profiles() {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, mode := range []struct {
			name    string
			advance bool
			start   time.Duration
		}{{"advance", true, 0}, {"standalone", false, 7*time.Hour + 500*time.Millisecond}} {
			t.Run(name+"/"+mode.name, func(t *testing.T) {
				p := MustLookup(name)
				sh, ref := NewShared(p, 100), newRefShared(p, 100)
				var gens []*Generator
				var refs []*refGen
				for i := int64(1); i <= 4; i++ {
					gens = append(gens, NewGenerator(sh, 100+i))
					refs = append(refs, newRefGen(ref, 100+i))
				}
				spikeSteps := 0
				ts := refSchedule(mode.start)
				for i, now := range ts {
					if mode.advance {
						sh.Advance(now)
						ref.advance(now)
					}
					switch i {
					case 30, 200: // after the tick's Advance, before its steps
						f := 1.25 - float64(i)/400
						sh.SetLoadFactor(f)
						ref.loadFactor = f
					case 100, 380:
						gens[0].SetExtraLoad(0.2 - float64(i)/2000)
						refs[0].extra = 0.2 - float64(i)/2000
					}
					for k, g := range gens {
						if (k == 2 && i < 50) || (k == 3 && i%3 != 0) {
							continue
						}
						now := now
						if k == 3 && i > 0 {
							now = ts[i-1]
						}
						got, want := g.Step(now), refs[k].refStep(now)
						if math.Float64bits(got) != math.Float64bits(want) ||
							math.Float64bits(g.local.x) != math.Float64bits(refs[k].local.x) ||
							math.Float64bits(sh.common.x) != math.Float64bits(ref.common.x) {
							t.Fatalf("step %d at %v, generator %d: util %v (local %v, common %v), reference %v (local %v, common %v)",
								i, now, k, got, g.local.x, sh.common.x, want, refs[k].local.x, ref.common.x)
						}
						if now < g.spikeUntil {
							spikeSteps++
						}
					}
				}
				if p.SpikesPerHour > 0 && spikeSteps == 0 {
					t.Fatal("no step ran with a spike in flight; the spike leg is vacuous")
				}
			})
		}
	}
}

// TestFractionalPartMatchesMod pins the identity Step's batch-wave phase
// relies on: x − trunc(x) equals math.Mod(x, 1) (up to the sign of a zero,
// which no comparison sees) for negative, fractional, integral and huge x.
func TestFractionalPartMatchesMod(t *testing.T) {
	rng := refRand(3)
	xs := []float64{0, -0.024, 0.3, 1, -1, 2.5, -2.5, 1 << 52, 1<<53 + 2, 1e300, math.SmallestNonzeroFloat64}
	for i := 0; i < 10000; i++ {
		xs = append(xs, (rng.Float64()-0.1)*math.Pow(10, float64(rng.IntN(18))))
	}
	for _, x := range xs {
		if got, want := x-math.Trunc(x), math.Mod(x, 1); got != want {
			t.Fatalf("x = %v: x - trunc(x) = %v, math.Mod(x, 1) = %v", x, got, want)
		}
	}
}
