package experiments

import (
	"fmt"
	"time"

	"dynamo/internal/core"
	"dynamo/internal/metrics"
	"dynamo/internal/power"
	"dynamo/internal/sim"
	"dynamo/internal/topology"
)

// Figure11Result holds the leaf-level capping event of paper Fig 11: a
// front-end cluster's daily ramp plus a production load test exceed the
// PDU breaker threshold; the leaf controller caps within seconds, holds
// power at the target, and uncaps when the test ends.
type Figure11Result struct {
	RowSeries    *metrics.Series
	CappedSeries *metrics.Series
	Limit        power.Watts
	// FirstCap / FirstUncap are when the controller acted.
	FirstCap, FirstUncap time.Duration
	// PeakAfterCap is the maximum row power after the first cap.
	PeakAfterCap power.Watts
	// Tripped reports whether the PDU breaker tripped (must be false).
	Tripped bool
}

// Figure11 reproduces the Ashburn front-end capping event.
func Figure11(o Options) Figure11Result {
	o.fill()
	o.section("Figure 11: leaf-level capping of a front-end cluster (PDU 127.5 kW)")

	nServers := o.scaleInt(420, 60)
	spec := topology.DefaultSpec()
	spec.MSBs, spec.SBsPerMSB, spec.RPPsPerSB = 1, 1, 1
	spec.RacksPerRPP = (nServers + 29) / 30
	spec.ServersPerRack = 30
	spec.Services = []topology.ServiceShare{{Service: "web", Generation: "haswell2015", Weight: 1}}
	// Scale the PDU rating with the fleet so the morning ramp plus load
	// test crosses the threshold exactly as in the paper.
	rating := power.Watts(float64(power.KW(127.5)) * float64(spec.NumServers()) / 420)
	spec.RPPRating = rating
	spec.SBRating = rating * 4
	spec.MSBRating = rating * 8

	s := newSim(sim.Config{
		Spec: spec, Seed: o.Seed, EnableDynamo: true,
		Hierarchy: core.HierarchyConfig{
			// The production PDU used a 127/126 kW threshold/target pair
			// on a 127.5 kW breaker with uncapping near 118 kW.
			Bands: core.BandConfig{CapThresholdFrac: 0.996, CapTargetFrac: 0.988, UncapThresholdFrac: 0.925},
		},
	})
	rpp := s.Topo.OfKind(topology.KindRPP)[0]

	// Fast-forward through the night, then sample at production speed
	// from 08:00.
	s.SetTickInterval(30 * time.Second)
	s.Run(8 * time.Hour)
	s.SetTickInterval(time.Second)
	s.Record(3*time.Second, rpp.ID)

	// 10:40: a production load test starts shifting extra traffic to the
	// cluster, ramping up over half an hour (the paper's power approaches
	// the threshold gradually and crosses it around 11:15);
	// 11:45: the test ends and traffic drains.
	for i := 1; i <= 10; i++ {
		frac := 0.30 * float64(i) / 10
		s.At(10*time.Hour+40*time.Minute+time.Duration(i)*210*time.Second,
			func() { s.SetExtraLoadUnder(rpp.ID, frac) })
	}
	s.At(11*time.Hour+45*time.Minute, func() { s.SetExtraLoadUnder(rpp.ID, -0.05) })
	leaf := s.Hierarchy.Leaf(rpp.ID)

	res := Figure11Result{Limit: rating, CappedSeries: metrics.NewSeries(8192)}
	lastCapped := 0
	probe := func() {
		n := leaf.CappedCount()
		res.CappedSeries.Add(s.Loop.Now(), float64(n))
		if n > 0 && lastCapped == 0 && res.FirstCap == 0 {
			res.FirstCap = s.Loop.Now()
		}
		if n == 0 && lastCapped > 0 && res.FirstCap != 0 && res.FirstUncap == 0 {
			res.FirstUncap = s.Loop.Now()
		}
		lastCapped = n
		if res.FirstCap != 0 {
			if p := s.DevicePower(rpp.ID); p > res.PeakAfterCap {
				res.PeakAfterCap = p
			}
		}
	}
	for t := 8 * time.Hour; t <= 12*time.Hour+30*time.Minute; t += 3 * time.Second {
		s.At(t, probe)
	}
	s.Run(4*time.Hour + 30*time.Minute)

	res.RowSeries = s.Series(rpp.ID)
	res.Tripped = s.Breakers[rpp.ID].Tripped()

	o.printf("%d web servers on a %v PDU breaker\n", spec.NumServers(), rating)
	o.printf("first cap at %s, uncap at %s, peak after cap %v, tripped=%v\n",
		clock(res.FirstCap), clock(res.FirstUncap), res.PeakAfterCap, res.Tripped)
	printSeriesByMinute(o, res.RowSeries, 15*time.Minute)
	return res
}

// Figure12Result holds the SB-level surge case study of paper Fig 12: an
// unplanned site outage, oscillating recovery, then a power surge to
// ~1.3× the normal peak that the SB-level controller absorbs by capping
// three offender rows.
type Figure12Result struct {
	SBSeries  *metrics.Series
	RowSeries map[string]*metrics.Series
	SBLimit   power.Watts
	// MaxContracted is the most rows simultaneously under contract.
	MaxContracted int
	// CapTime / UncapTime are the SB controller's action times.
	CapTime, UncapTime time.Duration
	// TrippedWithDynamo / TrippedBaseline report breaker trips in the
	// protected run and the no-Dynamo baseline of the same scenario.
	TrippedWithDynamo bool
	TrippedBaseline   bool
}

// Figure12 reproduces the Altoona outage-recovery surge, then re-runs the
// identical scenario without Dynamo to show the counterfactual outage.
func Figure12(o Options) Figure12Result {
	o.fill()
	o.section("Figure 12: SB-level surge during outage recovery (Altoona case)")
	res := Figure12Result{RowSeries: map[string]*metrics.Series{}}

	run := func(enable bool) *sim.Sim {
		const nRows = 8
		spec := topology.DefaultSpec()
		spec.MSBs, spec.SBsPerMSB = 1, 1
		spec.RPPsPerSB = nRows
		spec.RacksPerRPP = 2
		spec.ServersPerRack = o.scaleInt(30, 10)
		spec.Services = []topology.ServiceShare{{Service: "web", Generation: "haswell2015", Weight: 1}}
		// Calibration: the surge must trip the SB breaker without Dynamo
		// (sustained ≥2-3% overdraw) while the offending three rows carry
		// enough over-quota headroom to absorb the whole cut. With rows
		// at ~92% of quota normally and offenders saturating, SB limit =
		// worst-case row power / 0.152 satisfies both (see paper §III-D).
		serversPerRow := spec.RacksPerRPP * spec.ServersPerRack
		maxRow := power.Watts(float64(serversPerRow)*345) + 2*150
		sbLimit := power.Watts(float64(maxRow) / 0.152)
		spec.RPPRating = maxRow * 2 // rows are not the bottleneck here
		spec.SBRating = sbLimit
		spec.MSBRating = sbLimit * 2
		// Planned peaks (quotas) sit a little below an even split of the
		// SB limit, as production planning does; this is what makes the
		// saturated rows clear offenders.
		spec.QuotaFraction = 0.92
		res.SBLimit = sbLimit

		s := newSim(sim.Config{Spec: spec, Seed: o.Seed, EnableDynamo: enable})
		rpps := s.Topo.OfKind(topology.KindRPP)
		offenders := rpps[:3]

		// Normal operation runs slightly below the planned peak.
		s.SetServiceLoadFactor("web", 0.92)

		// Fast-forward the diurnal cycle to 11:00 so the scenario plays
		// out against realistic midday load.
		s.SetTickInterval(30 * time.Second)
		s.Run(11 * time.Hour)
		s.SetTickInterval(time.Second)

		at := func(clock time.Duration, fn func()) { s.At(clock, fn) }
		web := func(f float64) func() { return func() { s.SetServiceLoadFactor("web", f) } }
		at(12*time.Hour, web(0.25))                // site issue: sharp drop
		at(12*time.Hour+10*time.Minute, web(0.70)) // partial recovery...
		at(12*time.Hour+20*time.Minute, web(0.35)) // ...fails
		at(12*time.Hour+30*time.Minute, web(0.75)) // second attempt
		at(12*time.Hour+38*time.Minute, web(0.40)) // oscillation
		at(12*time.Hour+48*time.Minute, func() {   // successful recovery:
			s.SetServiceLoadFactor("web", 0.92) // traffic returns, and the
			for _, r := range offenders {       // rows hosting recovering
				s.SetExtraLoadUnder(r.ID, 1.0) // servers saturate
			}
		})
		at(13*time.Hour+18*time.Minute, func() { // load starts reducing
			for _, r := range offenders {
				s.SetExtraLoadUnder(r.ID, 0.10)
			}
		})
		at(13*time.Hour+35*time.Minute, func() { // traffic shifted away
			s.SetServiceLoadFactor("web", 0.80)
			for _, r := range offenders {
				s.SetExtraLoadUnder(r.ID, 0)
			}
		})
		return s
	}

	// Protected run.
	s := run(true)
	sb := s.Topo.OfKind(topology.KindSB)[0]
	rpps := s.Topo.OfKind(topology.KindRPP)
	s.Record(3*time.Second, append([]topology.NodeID{sb.ID}, rpps[0].ID, rpps[1].ID, rpps[2].ID)...)
	upper := s.Hierarchy.Upper(sb.ID)
	probe := func() {
		n := len(upper.ContractedChildren())
		if n > res.MaxContracted {
			res.MaxContracted = n
		}
		if n > 0 && res.CapTime == 0 {
			res.CapTime = s.Loop.Now()
		}
		if n == 0 && res.CapTime != 0 && res.UncapTime == 0 {
			res.UncapTime = s.Loop.Now()
		}
	}
	for t := 11 * time.Hour; t <= 14*time.Hour+30*time.Minute; t += 9 * time.Second {
		s.At(t, probe)
	}
	s.Run(3*time.Hour + 30*time.Minute)
	res.SBSeries = s.Series(sb.ID)
	for i := 0; i < 3; i++ {
		res.RowSeries[string(rpps[i].ID)] = s.Series(rpps[i].ID)
	}
	res.TrippedWithDynamo = len(s.TrippedDevices()) > 0

	// Baseline: identical scenario, no Dynamo.
	b := run(false)
	b.Run(3*time.Hour + 30*time.Minute)
	res.TrippedBaseline = len(b.TrippedDevices()) > 0

	o.printf("SB limit %v\n", res.SBLimit)
	o.printf("capping triggered at %s, uncapped at %s, max offender rows contracted: %d\n",
		clock(res.CapTime), clock(res.UncapTime), res.MaxContracted)
	o.printf("breaker tripped with Dynamo: %v; without Dynamo: %v\n",
		res.TrippedWithDynamo, res.TrippedBaseline)
	printSeriesByMinute(o, res.SBSeries, 10*time.Minute)
	return res
}

// clock formats a sim time as wall clock (sim origin varies by scenario).
func clock(d time.Duration) string {
	if d == 0 {
		return "never"
	}
	return fmt.Sprintf("%02d:%02d:%02d", int(d.Hours()), int(d.Minutes())%60, int(d.Seconds())%60)
}

// printSeriesByMinute prints a coarse view of a power series.
func printSeriesByMinute(o Options, s *metrics.Series, every time.Duration) {
	if s == nil || s.Len() == 0 {
		return
	}
	o.printf("%-10s %12s\n", "t", "power(kW)")
	var next time.Duration
	for i := 0; i < s.Len(); i++ {
		ts, v := s.At(i)
		if ts >= next {
			o.printf("%-10s %12.1f\n", clock(ts), v/1000)
			next = ts + every
		}
	}
}
