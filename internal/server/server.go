package server

import (
	"math"
	"time"

	"dynamo/internal/power"
)

// LoadSource supplies offered load over time. *workload.Generator satisfies
// it; tests can use fixed functions.
type LoadSource interface {
	// Step returns offered load (normalized CPU-seconds per second) at
	// time now. Calls have non-decreasing timestamps.
	Step(now time.Duration) float64
}

// LoadFunc adapts a function to LoadSource.
type LoadFunc func(now time.Duration) float64

// Step implements LoadSource.
func (f LoadFunc) Step(now time.Duration) float64 { return f(now) }

// raplTau is the actuation time constant; frequency reaches ~95 % of its
// target within three time constants ≈ 2 s, matching Fig 9.
const raplTau = 700 * time.Millisecond

// Server is one simulated machine. A single Server is not safe for
// concurrent use, but distinct Servers are fully independent: the
// simulator shards Tick across a worker pool, ticking each server exactly
// once per physics step from one goroutine, provided each server's
// LoadSource is either private to it or read-only during the step (see
// workload.Shared.Advance). All other methods run on the event loop.
type Server struct {
	id      string
	service string
	model   Model
	source  LoadSource

	// LoadScale multiplies source load; batch clusters (hadoop, search)
	// use >1 so saturated waves leave backlog that Turbo can absorb.
	loadScale float64

	turbo   bool
	govMax  float64 // administrative frequency ceiling (search cluster lock)
	limit   power.Watts
	limited bool

	freq float64
	load float64
	draw power.Watts

	crashed bool

	// Cumulative performance accounting.
	offeredWork   float64
	deliveredWork float64
	lastTick      time.Duration
	ticked        bool

	// slewAlpha is the RAPL slew coefficient 1 − exp(−dt/τ) and slewSec
	// the length in seconds of a step of slewDt: the physics step changes
	// only on SetTickInterval, so both are computed once per step length,
	// not once per tick.
	slewDt    time.Duration
	slewSec   float64
	slewAlpha float64
}

// Config creates a Server.
type Config struct {
	ID      string
	Service string
	Model   Model
	Source  LoadSource
	// LoadScale defaults to 1.0.
	LoadScale float64
	// Turbo enables Turbo Boost from the start.
	Turbo bool
	// GovMaxFreq administratively caps frequency (0 means no cap). The
	// paper's search cluster used such a lock before Dynamo removed it.
	GovMaxFreq float64
}

// New creates a server at nominal frequency with no power limit.
func New(cfg Config) *Server {
	s := new(Server)
	s.Init(cfg)
	return s
}

// Init sets s up in place as New(cfg) would, so a simulator can lay its
// fleet out in one slice in the order it ticks it.
func (s *Server) Init(cfg Config) {
	if cfg.Source == nil {
		cfg.Source = LoadFunc(func(time.Duration) float64 { return 0 })
	}
	scale := cfg.LoadScale
	if scale <= 0 {
		scale = 1.0
	}
	*s = Server{
		id:        cfg.ID,
		service:   cfg.Service,
		model:     cfg.Model,
		source:    cfg.Source,
		loadScale: scale,
		turbo:     cfg.Turbo,
		govMax:    cfg.GovMaxFreq,
	}
	s.freq = s.maxFreq()
	s.draw = s.model.Idle
}

// ID returns the server's identifier.
func (s *Server) ID() string { return s.id }

// Service returns the service the server runs.
func (s *Server) Service() string { return s.service }

// Model returns the hardware generation model.
func (s *Server) Model() Model { return s.model }

// maxFreq is the highest frequency currently allowed by Turbo state and
// the administrative governor.
func (s *Server) maxFreq() float64 {
	f := 1.0
	if s.turbo {
		f = s.model.TurboFreq
	}
	if s.govMax > 0 && s.govMax < f {
		f = s.govMax
	}
	if f < s.model.MinFreq {
		f = s.model.MinFreq
	}
	return f
}

// SetTurbo toggles Turbo Boost.
func (s *Server) SetTurbo(on bool) { s.turbo = on }

// Turbo reports whether Turbo Boost is enabled.
func (s *Server) Turbo() bool { return s.turbo }

// SetGovMaxFreq sets the administrative frequency ceiling; 0 clears it.
func (s *Server) SetGovMaxFreq(f float64) { s.govMax = f }

// SetLimit sets the RAPL power limit in watts.
func (s *Server) SetLimit(w power.Watts) {
	s.limit = w
	s.limited = true
}

// ClearLimit removes the RAPL power limit.
func (s *Server) ClearLimit() {
	s.limited = false
	s.limit = 0
}

// Limit returns the active power limit; ok is false when uncapped.
func (s *Server) Limit() (power.Watts, bool) { return s.limit, s.limited }

// Crash takes the server offline: zero power, unreachable agent.
func (s *Server) Crash() { s.crashed = true }

// Restore brings a crashed server back at nominal state.
func (s *Server) Restore() {
	s.crashed = false
	s.freq = s.maxFreq()
}

// Crashed reports whether the server is offline.
func (s *Server) Crashed() bool { return s.crashed }

// Tick advances the server to time now: samples load, slews frequency
// toward the RAPL target, and recomputes power draw. The draw is cached
// for the tick — Power is a field read, so aggregation passes may read it
// any number of times without re-running the physics.
func (s *Server) Tick(now time.Duration) {
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
		target = s.model.FreqForPower(s.limit, s.load, target)
	}
	switch {
	case first:
		s.freq = target
	case dt > 0:
		if dt != s.slewDt {
			s.slewDt = dt
			s.slewSec = dt.Seconds()
			s.slewAlpha = 1 - math.Exp(-s.slewSec/raplTau.Seconds())
		}
		s.freq += (target - s.freq) * s.slewAlpha
	}

	s.draw = s.model.PowerAt(s.load, s.freq)
	// RAPL is a hard budget enforcer: after settling it never allows
	// sustained draw above the limit. Model small transient overshoot
	// only through the slew above; clamp the floor of physics.
	if s.limited && s.draw > s.limit && s.freq <= s.model.MinFreq+1e-9 {
		// Cannot go lower; draw stays at the physical minimum for the
		// offered load.
		s.draw = s.model.PowerAt(s.load, s.model.MinFreq)
	}

	if dt > 0 {
		// slewSec is dt in seconds (dt > 0 took the slew branch). Load and
		// freq are finite, freq > 0: the compare is exactly math.Min.
		done := s.load
		if s.freq < done {
			done = s.freq
		}
		s.offeredWork += s.load * s.slewSec
		s.deliveredWork += done * s.slewSec
	}
}

// Power returns the current DC power draw.
func (s *Server) Power() power.Watts { return s.draw }

// Freq returns the current frequency factor.
func (s *Server) Freq() float64 { return s.freq }

// Load returns the current offered load.
func (s *Server) Load() float64 { return s.load }

// CPUUtil returns the current CPU utilization in [0,1].
func (s *Server) CPUUtil() float64 {
	if s.crashed || s.freq <= 0 {
		return 0
	}
	u := s.load / s.freq
	if u > 1 {
		u = 1
	}
	return u
}

// Slowdown returns the current relative latency inflation versus nominal
// frequency: 0 means no slowdown. Below the saturation knee it reflects
// service-time inflation; past it (offered load exceeds capacity) queueing
// dominates and the slope steepens — the Fig 13 shape.
func (s *Server) Slowdown() float64 {
	if s.crashed || s.freq <= 0 {
		return 0
	}
	sd := 0.5 * (1/s.freq - 1)
	if over := s.load/s.freq - 1; over > 0 {
		sd += 1.5 * over
	}
	if sd < 0 {
		sd = 0
	}
	return sd
}

// Work returns cumulative offered and delivered work (CPU-seconds at
// nominal frequency); the ratio measures batch throughput loss or, for
// Turbo runs, gain.
func (s *Server) Work() (offered, delivered float64) {
	return s.offeredWork, s.deliveredWork
}

// ResetWork clears the cumulative work counters.
func (s *Server) ResetWork() {
	s.offeredWork = 0
	s.deliveredWork = 0
}

// Breakdown reports the decomposed current power draw.
func (s *Server) Breakdown() Breakdown {
	return s.model.BreakdownAt(s.draw)
}
