package experiments

import (
	"time"

	"dynamo/internal/power"
	"dynamo/internal/server"
	"dynamo/internal/sim"
	"dynamo/internal/topology"
)

// TableIResult summarizes Dynamo's benefits (paper Table I).
type TableIResult struct {
	// SurgeEvents is how many random power-surge incidents were replayed.
	SurgeEvents int
	// OutagesPrevented counts incidents where the no-Dynamo baseline
	// tripped a breaker but the protected run did not (paper: 18 in six
	// months).
	OutagesPrevented int
	// HadoopServerGain is the per-server saturated Turbo gain ("up to
	// 13%" in the paper's performance tests).
	HadoopServerGain float64
	// SearchQPSGain is the burst-capacity gain after removing the legacy
	// frequency lock and enabling Turbo (paper: up to 40%).
	SearchQPSGain float64
	// ExtraServersPct is how many more servers fit under the same power
	// limit with Dynamo-backed oversubscription (paper: 8%).
	ExtraServersPct float64
	// MonitoringInterval is the power sampling granularity (paper: 3 s).
	MonitoringInterval time.Duration
}

// TableI regenerates the benefits summary by composing the underlying
// experiments: a batch of surge incidents for outage prevention, the
// Turbo/Hadoop and search measurements for performance, and a packing
// analysis for oversubscription.
func TableI(o Options) TableIResult {
	o.fill()
	o.section("Table I: summary of benefits")
	res := TableIResult{MonitoringInterval: 3 * time.Second}

	res.SurgeEvents, res.OutagesPrevented = surgeBatch(o)
	res.HadoopServerGain = hadoopServerGain()
	res.SearchQPSGain = searchQPSGain(o)
	res.ExtraServersPct = packingGain(o)

	o.printf("%-42s %s\n", "Use case", "Benefit")
	o.printf("%-42s prevented %d of %d potential outages\n",
		"Prevent potential power outage", res.OutagesPrevented, res.SurgeEvents)
	o.printf("%-42s +%.0f%% saturated per-server throughput\n",
		"Performance boost for Hadoop (Turbo)", res.HadoopServerGain*100)
	o.printf("%-42s +%.0f%% burst QPS capacity\n",
		"Performance boost for Search", res.SearchQPSGain*100)
	o.printf("%-42s +%.1f%% more servers under same limit\n",
		"Data center over-subscription", res.ExtraServersPct)
	o.printf("%-42s %v power readings per server\n",
		"Fine-grained real-time monitoring", res.MonitoringInterval)
	return res
}

// surgeBatch replays a set of unexpected power-surge incidents (shifted
// traffic, recovery storms) on small overloaded rows, with and without
// Dynamo, and counts prevented outages.
func surgeBatch(o Options) (events, prevented int) {
	events = o.scaleInt(18, 4)
	for i := 0; i < events; i++ {
		seed := o.Seed + int64(i)*101
		run := func(enable bool) bool {
			spec := topology.DefaultSpec()
			spec.MSBs, spec.SBsPerMSB, spec.RPPsPerSB = 1, 1, 1
			spec.RacksPerRPP = 3
			spec.ServersPerRack = 20
			spec.Services = []topology.ServiceShare{{Service: "web", Generation: "haswell2015", Weight: 1}}
			// The row is oversubscribed: worst case exceeds the rating
			// by ~15%.
			worst := power.Watts(float64(spec.NumServers())*345) + 3*150
			spec.RPPRating = power.Watts(float64(worst) / 1.15)
			spec.SBRating = spec.RPPRating * 4
			spec.MSBRating = spec.RPPRating * 8
			s := newSim(sim.Config{Spec: spec, Seed: seed, EnableDynamo: enable})
			// Normal load, then a surge of varying magnitude and length.
			s.SetServiceLoadFactor("web", 0.9)
			s.SetTickInterval(30 * time.Second)
			s.Run(11 * time.Hour)
			s.SetTickInterval(time.Second)
			mag := 0.35 + 0.05*float64(i%5)
			s.At(11*time.Hour+10*time.Minute, func() {
				s.SetExtraLoadUnder(s.Topo.OfKind(topology.KindRPP)[0].ID, mag)
			})
			hold := 20*time.Minute + time.Duration(i%4)*10*time.Minute
			s.At(11*time.Hour+10*time.Minute+hold, func() {
				s.SetExtraLoadUnder(s.Topo.OfKind(topology.KindRPP)[0].ID, 0)
			})
			s.Run(90 * time.Minute)
			return len(s.TrippedDevices()) > 0
		}
		baselineTripped := run(false)
		protectedTripped := run(true)
		if baselineTripped && !protectedTripped {
			prevented++
		}
	}
	return events, prevented
}

// hadoopServerGain measures the saturated single-server Turbo gain — the
// paper's "performance tests conducted on these servers showed ~13%".
func hadoopServerGain() float64 {
	run := func(turbo bool) float64 {
		s := server.New(server.Config{
			ID: "t1", Service: "hadoop",
			Model:     server.MustModel("haswell2015"),
			Source:    server.LoadFunc(func(time.Duration) float64 { return 1.0 }),
			LoadScale: 1.3,
			Turbo:     turbo,
		})
		for now := time.Duration(0); now <= time.Minute; now += time.Second {
			s.Tick(now)
		}
		_, d := s.Work()
		return d
	}
	return run(true)/run(false) - 1
}

// searchQPSGain compares the legacy frequency-locked search cluster to the
// Dynamo-protected unlocked + Turbo configuration. QPS capacity is the
// work delivered during short saturation bursts — brief enough that the
// breaker's thermal slack and Dynamo's reaction time let them run at full
// speed (the paper: Dynamo "kicked in in rare cases" only).
func searchQPSGain(o Options) float64 {
	run := func(locked bool) float64 {
		spec := topology.DefaultSpec()
		spec.MSBs, spec.SBsPerMSB, spec.RPPsPerSB = 1, 1, 2
		spec.RacksPerRPP = 2
		spec.ServersPerRack = o.scaleInt(20, 8)
		spec.Services = []topology.ServiceShare{{Service: "search", Generation: "haswell2015", Weight: 1}}
		n := spec.NumServers()
		// The cluster was packed for storage footprint: the budget fits
		// typical draw, not worst-case Turbo draw.
		budget := power.Watts(float64(n)*300) * 1.25
		spec.RPPRating = budget / 2
		spec.SBRating = budget
		spec.MSBRating = budget * 2

		cfg := sim.Config{
			Spec: spec, Seed: o.Seed, EnableDynamo: true,
			// LoadScale > 1 lets query bursts saturate past nominal
			// frequency (backlogged request queues).
			LoadScale: map[string]float64{"search": 1.4},
		}
		if locked {
			cfg.GovMaxFreq = map[string]float64{"search": 0.8}
		} else {
			cfg.Turbo = map[string]bool{"search": true}
		}
		s := newSim(cfg)
		// Typical load is moderate; bursts saturate.
		s.SetServiceLoadFactor("search", 0.45)
		s.Run(2 * time.Minute)
		// Measure delivered work across query bursts: 9 s saturation
		// every minute.
		var delivered float64
		for b := 0; b < 10; b++ {
			s.SetServiceLoadFactor("search", 2.5) // burst: saturate
			s.ResetWork()
			s.Run(9 * time.Second)
			st := s.StatsForService("search")
			delivered += st.Delivered
			s.SetServiceLoadFactor("search", 0.45)
			s.Run(51 * time.Second)
		}
		return delivered
	}
	return run(false)/run(true) - 1
}

// packingGain compares nameplate packing (servers = limit / worst-case
// power) to oversubscribed packing backed by Dynamo (servers scaled by the
// measured diversity between the fleet's actual peak and nameplate).
func packingGain(o Options) float64 {
	spec := topology.DefaultSpec() // production mix
	spec.MSBs, spec.SBsPerMSB, spec.RPPsPerSB = 1, 1, 4
	spec.RacksPerRPP = 4
	spec.ServersPerRack = o.scaleInt(30, 10)
	s := newSim(sim.Config{Spec: spec, Seed: o.Seed})
	n := spec.NumServers()
	msb := s.Topo.OfKind(topology.KindMSB)[0]
	s.Record(time.Minute, msb.ID)
	s.SetTickInterval(15 * time.Second)
	s.Run(24 * time.Hour)

	// Nameplate worst case per server for the installed mix.
	var nameplate power.Watts
	for _, srv := range s.Topo.Servers() {
		nameplate += server.MustModel(srv.Generation).MaxPower(false)
	}
	peak := power.Watts(s.Series(msb.ID).Max())
	if peak <= 0 {
		return 0
	}
	// Under a fixed limit L the nameplate plan fits L/(nameplate/n)
	// servers. With Dynamo as the safety net, packing to the observed
	// diversified peak plus an operational guard band is safe; the guard
	// retains headroom for correlated surges (the paper's deployment took
	// a first conservative 8% step "with more aggressive power
	// subscription measures underway").
	guard := 1.10
	gain := float64(nameplate)/(float64(peak)*guard) - 1
	_ = n
	return gain * 100
}
