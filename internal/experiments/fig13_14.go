package experiments

import (
	"time"

	"dynamo/internal/core"
	"dynamo/internal/metrics"
	"dynamo/internal/power"
	"dynamo/internal/server"
	"dynamo/internal/sim"
	"dynamo/internal/topology"
)

// Figure13Result holds the web-server slowdown vs power-reduction sweep
// (paper Fig 13): a control group of three uncapped servers against three
// capped ones at increasing capping levels.
type Figure13Result struct {
	// ReductionPct are the x-axis power-reduction levels (0-50).
	ReductionPct []float64
	// SlowdownPct is the measured relative latency slowdown (%).
	SlowdownPct []float64
	// KneePct is the reduction level where marginal slowdown first
	// exceeds twice the initial slope (~20% in the paper).
	KneePct float64
}

// Figure13 sweeps RAPL capping levels on web servers and measures
// server-side latency inflation against the uncapped control group.
func Figure13(o Options) Figure13Result {
	o.fill()
	o.section("Figure 13: web server slowdown vs power reduction")

	load := 0.7
	mkGroup := func(n int) []*server.Server {
		out := make([]*server.Server, n)
		for i := range out {
			out[i] = server.New(server.Config{
				ID: "fig13", Service: "web",
				Model:  server.MustModel("haswell2015"),
				Source: server.LoadFunc(func(time.Duration) float64 { return load }),
			})
		}
		return out
	}

	var res Figure13Result
	o.printf("%-14s %14s\n", "reduction(%)", "slowdown(%)")
	for cut := 0.0; cut <= 0.50001; cut += 0.05 {
		capped := mkGroup(3)
		control := mkGroup(3)
		step := 250 * time.Millisecond
		// Warm both groups, apply the cap, let them settle.
		for now := time.Duration(0); now <= 5*time.Second; now += step {
			for _, s := range append(capped, control...) {
				s.Tick(now)
			}
		}
		for _, s := range capped {
			s.SetLimit(power.Watts(float64(s.Power()) * (1 - cut)))
		}
		for now := 5 * time.Second; now <= 30*time.Second; now += step {
			for _, s := range append(capped, control...) {
				s.Tick(now)
			}
		}
		var sdCap, sdCtl float64
		for i := range capped {
			sdCap += capped[i].Slowdown()
			sdCtl += control[i].Slowdown()
		}
		slow := (sdCap - sdCtl) / 3 * 100
		res.ReductionPct = append(res.ReductionPct, cut*100)
		res.SlowdownPct = append(res.SlowdownPct, slow)
		o.printf("%-14.0f %14.1f\n", cut*100, slow)
	}

	// Knee detection: first point whose marginal slope exceeds 2× the
	// initial slope.
	if len(res.SlowdownPct) > 3 {
		initSlope := (res.SlowdownPct[2] - res.SlowdownPct[0]) / (res.ReductionPct[2] - res.ReductionPct[0])
		if initSlope < 0.05 {
			initSlope = 0.05
		}
		for i := 1; i < len(res.SlowdownPct); i++ {
			slope := (res.SlowdownPct[i] - res.SlowdownPct[i-1]) / (res.ReductionPct[i] - res.ReductionPct[i-1])
			if slope > 2*initSlope {
				res.KneePct = res.ReductionPct[i]
				break
			}
		}
	}
	o.printf("knee at ≈%.0f%% power reduction\n", res.KneePct)
	return res
}

// Figure14Result holds the 24-hour Hadoop + Turbo Boost run (paper
// Fig 14): SB power hugging its limit, servers throttled during peak
// waves, and the throughput gain over the no-Turbo baseline.
type Figure14Result struct {
	SBSeries     *metrics.Series
	CappedSeries *metrics.Series
	SBLimit      power.Watts
	// Episodes counts distinct capping episodes over the day (paper: 7).
	Episodes int
	// MaxCapped is the most servers capped at once (paper: 600-900 of
	// several thousand).
	MaxCapped int
	// ThroughputGain is delivered work with Turbo / without Turbo − 1
	// (paper: ≈ +13%).
	ThroughputGain float64
	// Tripped must be false.
	Tripped bool
}

// Figure14 enables Turbo Boost on a power-constrained Hadoop cluster with
// Dynamo as the safety net and replays a 24-hour day.
func Figure14(o Options) Figure14Result {
	o.fill()
	o.section("Figure 14: dynamic oversubscription — Hadoop cluster with Turbo Boost")

	build := func(turbo bool) (*sim.Sim, power.Watts) {
		spec := topology.DefaultSpec()
		spec.MSBs, spec.SBsPerMSB = 1, 1
		spec.RPPsPerSB = 8
		spec.RacksPerRPP = o.scaleInt(4, 1)
		spec.ServersPerRack = 30
		spec.Services = []topology.ServiceShare{{Service: "hadoop", Generation: "haswell2015", Weight: 1}}
		n := spec.NumServers()
		// Power planning for this cluster did not account for Turbo: the
		// SB limit fits worst-case nominal power with margin, but the
		// Turbo-peak job waves exceed it slightly, so capping triggers
		// only at wave crests.
		model := server.MustModel("haswell2015")
		turboWorst := power.Watts(float64(n) * float64(model.MaxPower(true)))
		limit := power.Watts(float64(turboWorst) * 0.98)
		spec.SBRating = limit
		spec.RPPRating = limit / 4 // rows are not the bottleneck
		spec.MSBRating = limit * 2

		s := newSim(sim.Config{
			Spec: spec, Seed: o.Seed, EnableDynamo: true,
			LoadScale: map[string]float64{"hadoop": 1.35},
			Turbo:     map[string]bool{"hadoop": turbo},
			Hierarchy: core.HierarchyConfig{
				// Batch clusters trade less safety margin for more
				// throughput: a shallower capping target keeps power
				// hugging the limit and throttles only the top bucket
				// of servers ("configurable per-controller", §III-C2).
				Bands: core.BandConfig{CapThresholdFrac: 0.99, CapTargetFrac: 0.975, UncapThresholdFrac: 0.90},
			},
		})
		return s, limit
	}

	// Turbo run, instrumented.
	s, limit := build(true)
	sb := s.Topo.OfKind(topology.KindSB)[0]
	s.Record(time.Minute, sb.ID)
	res := Figure14Result{SBLimit: limit, CappedSeries: metrics.NewSeries(2048)}

	inEpisode := false
	probe := func() {
		n := s.CappedServerCount()
		res.CappedSeries.Add(s.Loop.Now(), float64(n))
		if n > res.MaxCapped {
			res.MaxCapped = n
		}
		if n > 0 && !inEpisode {
			inEpisode = true
			res.Episodes++
		}
		if n == 0 {
			inEpisode = false
		}
	}
	day := o.scaleDur(24*time.Hour, 2*time.Hour)
	for t := time.Duration(0); t <= day; t += time.Minute {
		s.At(t, probe)
	}
	s.SetTickInterval(3 * time.Second)
	s.Run(day)
	res.SBSeries = s.Series(sb.ID)
	res.Tripped = len(s.TrippedDevices()) > 0
	turboStats := s.StatsForService("hadoop")

	// Baseline: same day without Turbo.
	b, _ := build(false)
	b.SetTickInterval(3 * time.Second)
	b.Run(day)
	baseStats := b.StatsForService("hadoop")
	if baseStats.Delivered > 0 {
		res.ThroughputGain = turboStats.Delivered/baseStats.Delivered - 1
	}

	o.printf("%d hadoop servers, SB limit %v, %v simulated\n",
		turboStats.Servers, limit, day)
	o.printf("capping episodes: %d, max servers capped at once: %d, tripped=%v\n",
		res.Episodes, res.MaxCapped, res.Tripped)
	o.printf("map-reduce throughput gain with Turbo: %+.1f%%\n", res.ThroughputGain*100)
	printSeriesByMinute(o, res.SBSeries, day/16)
	return res
}
