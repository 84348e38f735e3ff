// Package workload generates per-server CPU-utilization time series for the
// six Facebook services characterized in the paper (§II-B, Fig 6): web,
// cache, hadoop, database (MySQL), newsfeed, and f4/photo storage.
//
// Each service's generator combines:
//
//   - a deterministic diurnal load curve (peak near local noon), which
//     drives the daily ramps visible in Fig 11 and Fig 14;
//   - a service-wide common-mode Ornstein–Uhlenbeck (OU) noise process,
//     shared by all servers of the service, modelling load-balancer level
//     traffic fluctuations (this is what makes aggregate power at the
//     rack/RPP level vary much more than independent noise would allow);
//   - a per-server OU noise process; and
//   - Poisson-arrival load spikes (request bursts, compactions, batch
//     scan jobs) with service-specific magnitude and duration.
//
// Parameters are calibrated so the 60 s windowed power-variation
// percentiles reproduce the ordering and rough magnitudes of Fig 6
// (f4storage: lowest p50, highest p99; newsfeed and web: highest p50).
package workload

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"dynamo/internal/noise"
)

// Pattern selects the deterministic component of a profile's load.
type Pattern int

const (
	// PatternDiurnal follows a day/night traffic curve.
	PatternDiurnal Pattern = iota
	// PatternBatch models batch processing: job waves with idle gaps,
	// largely independent of time of day (hadoop).
	PatternBatch
	// PatternFlat holds the base utilization (storage tiers).
	PatternFlat
)

// Profile parameterizes a service's utilization process. Utilization is a
// fraction in [0, 1].
type Profile struct {
	Name    string
	Pattern Pattern

	// BaseUtil is the mean utilization at the diurnal midpoint.
	BaseUtil float64
	// DiurnalAmp is the peak-to-midpoint amplitude of the daily cycle.
	DiurnalAmp float64

	// CommonSigma/CommonTau parameterize the service-wide OU process.
	CommonSigma float64
	CommonTau   time.Duration
	// LocalSigma/LocalTau parameterize the per-server OU process.
	LocalSigma float64
	LocalTau   time.Duration

	// SpikesPerHour is the Poisson rate of per-server load spikes.
	SpikesPerHour float64
	// SpikeMag / SpikeMagSigma give the spike magnitude distribution
	// (normal, truncated at 0).
	SpikeMag      float64
	SpikeMagSigma float64
	// SpikeDur is the mean spike duration (exponentially distributed).
	SpikeDur time.Duration

	// BatchPeriod/BatchDuty shape PatternBatch: jobs arrive every
	// BatchPeriod on average and run at high utilization for
	// BatchDuty × BatchPeriod.
	BatchPeriod time.Duration
	BatchDuty   float64
}

// Profiles returns the calibrated profile set, keyed by service name.
func Profiles() map[string]Profile {
	return map[string]Profile{
		"web": {
			Name: "web", Pattern: PatternDiurnal,
			BaseUtil: 0.45, DiurnalAmp: 0.25,
			CommonSigma: 0.02, CommonTau: 45 * time.Second,
			LocalSigma: 0.09, LocalTau: 25 * time.Second,
			SpikesPerHour: 2, SpikeMag: 0.15, SpikeMagSigma: 0.05,
			SpikeDur: 20 * time.Second,
		},
		"cache": {
			Name: "cache", Pattern: PatternDiurnal,
			BaseUtil: 0.40, DiurnalAmp: 0.15,
			CommonSigma: 0.02, CommonTau: 60 * time.Second,
			LocalSigma: 0.025, LocalTau: 30 * time.Second,
			SpikesPerHour: 1, SpikeMag: 0.08, SpikeMagSigma: 0.03,
			SpikeDur: 15 * time.Second,
		},
		"hadoop": {
			Name: "hadoop", Pattern: PatternBatch,
			BaseUtil: 0.65, DiurnalAmp: 0,
			CommonSigma: 0.02, CommonTau: 90 * time.Second,
			LocalSigma: 0.05, LocalTau: 40 * time.Second,
			SpikesPerHour: 4, SpikeMag: 0.10, SpikeMagSigma: 0.04,
			SpikeDur: 60 * time.Second,
			// Job waves are cluster-wide (a MapReduce job spans the
			// cluster): the wave phase lives in the per-service Shared
			// state, with small per-server jitter. A handful of waves per
			// day produces the ~7 capping episodes of Fig 14.
			BatchPeriod: 3 * time.Hour, BatchDuty: 0.6,
		},
		"database": {
			Name: "database", Pattern: PatternDiurnal,
			BaseUtil: 0.35, DiurnalAmp: 0.15,
			CommonSigma: 0.015, CommonTau: 60 * time.Second,
			LocalSigma: 0.035, LocalTau: 20 * time.Second,
			SpikesPerHour: 4, SpikeMag: 0.18, SpikeMagSigma: 0.08,
			SpikeDur: 25 * time.Second,
		},
		"newsfeed": {
			Name: "newsfeed", Pattern: PatternDiurnal,
			BaseUtil: 0.45, DiurnalAmp: 0.20,
			CommonSigma: 0.025, CommonTau: 40 * time.Second,
			LocalSigma: 0.115, LocalTau: 20 * time.Second,
			SpikesPerHour: 4, SpikeMag: 0.20, SpikeMagSigma: 0.08,
			SpikeDur: 30 * time.Second,
		},
		// search is not part of the Fig 6 characterization but appears in
		// the paper's Table I (the CPU-bound search cluster whose QPS
		// rose 40% once Dynamo allowed removing the frequency lock).
		"search": {
			Name: "search", Pattern: PatternDiurnal,
			BaseUtil: 0.80, DiurnalAmp: 0.10,
			CommonSigma: 0.04, CommonTau: 60 * time.Second,
			LocalSigma: 0.05, LocalTau: 30 * time.Second,
			SpikesPerHour: 2, SpikeMag: 0.10, SpikeMagSigma: 0.05,
			SpikeDur: 20 * time.Second,
		},
		// network is the load profile for cappable top-of-rack switches
		// (paper §III-E extension): steady forwarding load tracking the
		// rack's diurnal traffic with very little noise.
		"network": {
			Name: "network", Pattern: PatternDiurnal,
			BaseUtil: 0.55, DiurnalAmp: 0.10,
			CommonSigma: 0.01, CommonTau: 60 * time.Second,
			LocalSigma: 0.01, LocalTau: 60 * time.Second,
		},
		"f4storage": {
			Name: "f4storage", Pattern: PatternFlat,
			BaseUtil: 0.25, DiurnalAmp: 0.03,
			CommonSigma: 0.004, CommonTau: 120 * time.Second,
			LocalSigma: 0.02, LocalTau: 60 * time.Second,
			// Rare but very large bursts (bulk reads, rebuilds): the
			// lowest p50 / highest p99 signature of Fig 6.
			SpikesPerHour: 2.5, SpikeMag: 0.75, SpikeMagSigma: 0.20,
			SpikeDur: 40 * time.Second,
		},
	}
}

// Lookup returns the profile for a service name.
func Lookup(service string) (Profile, error) {
	p, ok := Profiles()[service]
	if !ok {
		return Profile{}, fmt.Errorf("workload: unknown service %q", service)
	}
	return p, nil
}

// MustLookup panics on unknown services; for tests and builders.
func MustLookup(service string) Profile {
	p, err := Lookup(service)
	if err != nil {
		panic(err)
	}
	return p
}

// ServiceNames returns the characterized services in a stable order.
func ServiceNames() []string {
	return []string{"web", "cache", "hadoop", "database", "newsfeed", "f4storage"}
}

// ou is an Ornstein–Uhlenbeck process advanced in discrete steps. The
// stationary distribution is N(0, sigma²) regardless of step size.
type ou struct {
	x     float64
	sigma float64
	tau   float64 // seconds
}

// ouCoef holds one step's decay a = exp(−dt/τ) and noise gain
// b = σ·sqrt(1−a²). They depend only on the process parameters and dt, so
// a service computes them once per dt, not once per server-tick.
type ouCoef struct{ a, b float64 }

func (p ou) coef(dtSec float64) ouCoef {
	a := math.Exp(-dtSec / p.tau)
	return ouCoef{a, p.sigma * math.Sqrt(1-a*a)}
}

func (p *ou) step(c ouCoef, rng *rand.Rand) float64 {
	if p.tau <= 0 || p.sigma == 0 {
		return 0
	}
	p.x = p.x*c.a + c.b*rng.NormFloat64()
	return p.x
}

// Shared is the per-service state shared by all of a service's generators:
// the common-mode OU process and the service's diurnal phase. It advances
// at most once per distinct timestamp — either explicitly via Advance
// (the simulator's pre-tick pass) or lazily by the first generator Step
// to observe the timestamp.
type Shared struct {
	profile Profile
	rng     *rand.Rand
	common  ou
	last    time.Duration
	started bool
	// LoadFactor scales the deterministic load component; scenario events
	// (traffic shifts, load tests, site outages) manipulate it.
	loadFactor float64
	// batchPhase is the service-wide job-wave phase (PatternBatch).
	batchPhase float64

	// What every generator of the service would otherwise recompute on
	// every step, written only by advance: det is the deterministic
	// utilization at last (before loadFactor, so SetLoadFactor between an
	// advance and the steps that follow it stays exact), and commonC/localC
	// are the OU coefficients of both processes for a step of dt seconds
	// (dt −1: none yet, and no generator's dt matches).
	// step is the Duration whose length in seconds is dt, so a generator
	// whose own step matches reads dt instead of converting.
	det             float64
	dt              float64
	step            time.Duration
	commonC, localC ouCoef
}

// NewShared creates shared state for one service.
func NewShared(p Profile, seed int64) *Shared {
	rng := noise.New(seed)
	return &Shared{
		profile:    p,
		rng:        rng,
		common:     ou{sigma: p.CommonSigma, tau: p.CommonTau.Seconds()},
		loadFactor: 1.0,
		batchPhase: rng.Float64(),
		det:        p.det(0),
		dt:         -1,
	}
}

// SetLoadFactor scales the service's deterministic load; 1.0 is nominal.
func (s *Shared) SetLoadFactor(f float64) {
	if f < 0 {
		f = 0
	}
	s.loadFactor = f
}

// LoadFactor returns the current load factor.
func (s *Shared) LoadFactor() float64 { return s.loadFactor }

// Advance moves the common-mode process to time now. The simulator calls
// this once per physics tick, before any generator Step, so that during a
// sharded (parallel) tick every Step observes now <= last and the shared
// state is strictly read-only: concurrent Steps of the same service's
// generators never race on the shared RNG or OU state. Calling Step
// without a prior Advance remains correct — the first generator to see a
// new timestamp advances the shared state exactly once either way.
func (s *Shared) Advance(now time.Duration) { s.advance(now) }

// advance moves the common-mode process, and the per-tick values the
// generators read, to time now.
func (s *Shared) advance(now time.Duration) {
	if s.started && now <= s.last {
		return
	}
	s.det = s.profile.det(now)
	if !s.started {
		s.started = true
		s.last = now
		return
	}
	step := now - s.last
	s.last = now
	if step != s.step {
		s.step = step
		s.dt = step.Seconds()
		s.commonC = s.common.coef(s.dt)
		s.localC = ou{sigma: s.profile.LocalSigma, tau: s.profile.LocalTau.Seconds()}.coef(s.dt)
	}
	s.common.step(s.commonC, s.rng)
}

// det returns the profile's deterministic utilization at time now.
func (p *Profile) det(now time.Duration) float64 {
	switch p.Pattern {
	case PatternDiurnal, PatternFlat:
		// Peak at 13:00, trough at 01:00 local (paper Fig 11 shows the
		// morning ramp between 08:30 and 11:00).
		dayFrac := math.Mod(now.Hours(), 24) / 24
		return p.BaseUtil + p.DiurnalAmp*math.Sin(2*math.Pi*(dayFrac-7.0/24))
	case PatternBatch:
		return p.BaseUtil
	}
	return 0
}

// base returns the deterministic utilization component at time now: the
// value advance computed when now is the shared timestamp (always, under
// the simulator), computed on the spot otherwise.
func (s *Shared) base(now time.Duration) float64 {
	det := s.det
	if now != s.last {
		det = s.profile.det(now)
	}
	return det * s.loadFactor
}

// Generator produces a single server's utilization series. Step must be
// called with non-decreasing timestamps.
type Generator struct {
	shared *Shared // its profile and per-tick values are read-only here
	rng    *rand.Rand
	local  ou

	last    time.Duration
	started bool

	spikeUntil time.Duration
	spikeMag   float64

	batchPhase float64 // random phase offset for batch waves

	// extra is an additive utilization offset controlled by scenarios
	// (e.g. per-row load tests).
	extra float64
}

// NewGenerator creates a generator for one server of the shared service.
func NewGenerator(shared *Shared, seed int64) *Generator {
	g := new(Generator)
	g.Init(shared, seed)
	return g
}

// Init sets g up in place as NewGenerator(shared, seed) would, so a
// simulator can lay its generators out in one slice in tick order.
func (g *Generator) Init(shared *Shared, seed int64) {
	rng := noise.New(seed)
	*g = Generator{
		shared:     shared,
		rng:        rng,
		local:      ou{sigma: shared.profile.LocalSigma, tau: shared.profile.LocalTau.Seconds()},
		batchPhase: shared.batchPhase + (rng.Float64()-0.5)*0.05,
	}
}

// Service returns the generator's service name.
func (g *Generator) Service() string { return g.shared.profile.Name }

// SetExtraLoad sets an additive utilization offset (scenario hook).
func (g *Generator) SetExtraLoad(u float64) { g.extra = u }

// Step advances the generator to now and returns the utilization in [0,1].
func (g *Generator) Step(now time.Duration) float64 {
	s := g.shared
	p := &s.profile
	s.advance(now)
	var dt float64
	if !g.started {
		g.started = true
		g.last = now
	} else if now > g.last {
		dt = s.dt
		if now-g.last != s.step {
			dt = (now - g.last).Seconds()
		}
		g.last = now
	}
	c := s.localC
	if dt != s.dt {
		// Out of step with the service: a first step, a repeated
		// timestamp, or a generator stepped on its own schedule.
		c = g.local.coef(dt)
	}
	local := g.local.step(c, g.rng)

	// Spike process: Poisson arrivals, exponential duration.
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

	u := s.base(now) + s.common.x + local + spike + g.extra

	// Batch pattern: square wave of job activity with per-server phase.
	if p.Pattern == PatternBatch && p.BatchPeriod > 0 {
		// x − trunc(x) is math.Mod(x, 1) exactly (both are the exact
		// fractional part, sign kept) without Mod's frexp loop.
		cyc := now.Seconds()/p.BatchPeriod.Seconds() + g.batchPhase
		cyc -= math.Trunc(cyc)
		if cyc > p.BatchDuty {
			u -= 0.25 // between job waves the node quiesces
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
