// Package server simulates individual servers: their power draw as a
// function of load and frequency (calibrated to the two generations in
// paper Fig 1), DVFS/RAPL actuation dynamics (Fig 9), Turbo Boost
// (§IV-B), and the performance impact of power capping (Fig 13).
//
// The physics are intentionally simple but mechanistic:
//
//   - A workload offers load L — CPU-seconds of work per second at nominal
//     frequency. L may exceed 1 for backlogged batch work (hadoop, search).
//   - At frequency factor f (1.0 = nominal), the CPU delivers min(L, f)
//     work; utilization is min(1, L/f) — capping frequency makes the same
//     work occupy more of the slower CPU.
//   - Power is P = idle + span · u · f^p with p ≈ 2 (DVFS: P ∝ f·V², V
//     tracks f). Turbo raises the frequency ceiling to ~1.13, which at
//     saturation costs ≈ +20 % power for ≈ +13 % throughput — exactly the
//     paper's Hadoop trade-off.
//   - RAPL solves for the frequency that honours a watt limit and slews
//     the actual frequency toward it with a ~0.7 s time constant, giving
//     the ≈2 s settle observed in Fig 9.
package server

import (
	"fmt"
	"math"

	"dynamo/internal/power"
)

// Model describes a hardware generation's power behaviour.
type Model struct {
	// Name identifies the generation, e.g. "haswell2015".
	Name string
	// Idle is the power draw at zero utilization, nominal frequency.
	Idle power.Watts
	// Peak is the power draw at full utilization, nominal frequency
	// (Turbo exceeds this).
	Peak power.Watts
	// PowerExp is p in P = idle + span·u·f^p.
	PowerExp float64
	// MinFreq is the lowest frequency factor DVFS can reach.
	MinFreq float64
	// TurboFreq is the frequency factor with Turbo Boost engaged.
	TurboFreq float64
}

// Generations returns the calibrated hardware generations from Fig 1:
// the 2011 24-core Westmere web server and the 2015 48-core Haswell web
// server (whose peak power nearly doubled).
func Generations() map[string]Model {
	return map[string]Model{
		"westmere2011": {
			Name:     "westmere2011",
			Idle:     90,
			Peak:     215,
			PowerExp: 2.0,
			MinFreq:  0.5, TurboFreq: 1.0, // no Turbo on the 2011 platform
		},
		"haswell2015": {
			Name:     "haswell2015",
			Idle:     95,
			Peak:     345,
			PowerExp: 2.0,
			MinFreq:  0.4, TurboFreq: 1.13,
		},
		// torswitch models a top-of-rack switch that supports power
		// capping — the paper's named future extension (§III-E: "in case
		// future network devices support capping, Dynamo can be easily
		// extended to control network devices as well"). Switches have a
		// narrow dynamic range and a high frequency floor: capping can
		// shave SerDes/buffer power but never turn the network off.
		"torswitch": {
			Name:     "torswitch",
			Idle:     120,
			Peak:     170,
			PowerExp: 1.5,
			MinFreq:  0.8, TurboFreq: 1.0,
		},
	}
}

// LookupModel returns a generation model by name.
func LookupModel(name string) (Model, error) {
	m, ok := Generations()[name]
	if !ok {
		return Model{}, fmt.Errorf("server: unknown generation %q", name)
	}
	return m, nil
}

// MustModel panics on unknown generation names.
func MustModel(name string) Model {
	m, err := LookupModel(name)
	if err != nil {
		panic(err)
	}
	return m
}

// Span returns the dynamic power range peak − idle. Span, PowerAt and
// FreqForPower run every server-tick, so they take the 56-byte Model by
// pointer; the rest keep value receivers and work on map elements.
func (m *Model) Span() power.Watts { return m.Peak - m.Idle }

// PowerAt returns the DC power draw with offered load l and frequency
// factor f.
func (m *Model) PowerAt(load, freq float64) power.Watts {
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
	// f² as one multiply: for y = 2 math.Pow squares Frexp's mantissa and
	// scales back by an exact power of two, so every normal result has the
	// same bits (TestSquareMatchesPow).
	fp := freq * freq
	if m.PowerExp != 2 {
		fp = math.Pow(freq, m.PowerExp)
	}
	dyn := float64(m.Span()) * util * fp
	return m.Idle + power.Watts(dyn)
}

// MaxPower returns the worst-case draw: full utilization at the highest
// frequency the server can reach (Turbo if enabled).
func (m Model) MaxPower(turbo bool) power.Watts {
	f := 1.0
	if turbo {
		f = m.TurboFreq
	}
	return m.PowerAt(f, f) // load ≥ f saturates utilization
}

// MinPower returns the lowest cappable power: full utilization at minimum
// frequency (the floor RAPL can enforce while the server still does work).
func (m Model) MinPower() power.Watts {
	return m.PowerAt(m.MinFreq, m.MinFreq)
}

// FreqForPower returns the frequency factor that brings power to at most
// limit under offered load l, clamped to [MinFreq, maxFreq]. This is the
// planning step RAPL performs when a limit is set.
//
// Two regimes exist. While f ≥ l the CPU keeps up, utilization is l/f and
// P = idle + span·l·f^(p−1). Once f < l the CPU saturates (u = 1) and
// P = idle + span·f^p.
func (m *Model) FreqForPower(limit power.Watts, load, maxFreq float64) float64 {
	span := float64(m.Span())
	budget := float64(limit - m.Idle)
	lo := m.MinFreq
	if maxFreq < lo {
		maxFreq = lo
	}
	if budget <= 0 {
		return lo
	}
	if m.PowerAt(load, maxFreq) <= limit {
		return maxFreq
	}
	if load <= 0 {
		return maxFreq
	}
	p := m.PowerExp
	// Try the f ≥ load branch first.
	if load < maxFreq {
		f := math.Pow(budget/(span*load), 1/(p-1))
		if f >= load {
			return clampF(f, lo, maxFreq)
		}
	}
	// Saturated branch.
	f := math.Pow(budget/span, 1/p)
	return clampF(f, lo, maxFreq)
}

func clampF(f, lo, hi float64) float64 {
	if f < lo {
		return lo
	}
	if f > hi {
		return hi
	}
	return f
}
