package experiments

import (
	"time"

	"dynamo/internal/metrics"
	"dynamo/internal/sim"
	"dynamo/internal/topology"
	"dynamo/internal/workload"
)

// fig5Windows are the paper's analysis windows.
var fig5Windows = []time.Duration{
	3 * time.Second, 30 * time.Second, 60 * time.Second,
	150 * time.Second, 300 * time.Second, 600 * time.Second,
}

// Figure5Result holds normalized power-variation distributions per
// hierarchy level and window (paper Fig 5).
type Figure5Result struct {
	// P99 maps level name → window → 99th percentile variation (as a
	// fraction of mean power, e.g. 0.128 = 12.8%).
	P99 map[string]map[time.Duration]float64
	// Dist maps level name → window → full distribution for CDF plots.
	Dist map[string]map[time.Duration]*metrics.Distribution
}

// Figure5 runs one data center suite with the production service mix,
// samples every device's power, and reports the windowed power-variation
// CDF per hierarchy level. The paper's two key observations must emerge:
// larger windows → larger variation, and higher aggregation level →
// smaller relative variation (statistical multiplexing).
func Figure5(o Options) Figure5Result {
	o.fill()
	o.section("Figure 5: power variation by hierarchy level and time window")

	spec := topology.DefaultSpec()
	spec.MSBs = 1
	spec.SBsPerMSB = 2
	spec.RPPsPerSB = 4
	spec.RacksPerRPP = o.scaleInt(6, 2)
	spec.ServersPerRack = o.scaleInt(15, 5)

	s := newSim(sim.Config{Spec: spec, Seed: o.Seed})
	var all []topology.NodeID
	for _, d := range s.Topo.Devices() {
		all = append(all, d.ID)
	}
	s.Record(time.Second, all...)
	dur := o.scaleDur(4*time.Hour, 30*time.Minute)
	s.Run(dur)

	levels := []topology.Kind{topology.KindRack, topology.KindRPP, topology.KindSB, topology.KindMSB}
	res := Figure5Result{
		P99:  map[string]map[time.Duration]float64{},
		Dist: map[string]map[time.Duration]*metrics.Distribution{},
	}
	for _, kind := range levels {
		name := kind.String()
		res.P99[name] = map[time.Duration]float64{}
		res.Dist[name] = map[time.Duration]*metrics.Distribution{}
		for _, w := range fig5Windows {
			var pooled []float64
			for _, dev := range s.Topo.OfKind(kind) {
				series := s.Series(dev.ID)
				mean := series.Mean()
				if mean <= 0 {
					continue
				}
				for _, v := range series.WindowVariations(w) {
					pooled = append(pooled, v/mean)
				}
			}
			d := metrics.NewDistribution(pooled)
			res.Dist[name][w] = d
			res.P99[name][w] = d.Percentile(99)
		}
	}

	o.printf("%d servers, %v simulated, 1 s samples\n", spec.NumServers(), dur)
	o.printf("p99 power variation (%% of mean power):\n")
	o.printf("%-8s", "window")
	for _, kind := range levels {
		o.printf(" %8s", kind)
	}
	o.printf("\n")
	for _, w := range fig5Windows {
		o.printf("%-8v", w)
		for _, kind := range levels {
			o.printf(" %7.1f%%", res.P99[kind.String()][w]*100)
		}
		o.printf("\n")
	}
	return res
}

// Figure6Result holds per-service power variation summaries at the 60 s
// window (paper Fig 6).
type Figure6Result struct {
	// P50 and P99 map service name → variation fraction.
	P50, P99 map[string]float64
	Dist     map[string]*metrics.Distribution
}

// Figure6 measures server-level power variation for 30 servers of each of
// the six characterized services over a 60 s window. The paper's
// signature orderings must hold: f4storage has the lowest p50 and the
// highest p99; newsfeed and web have the highest p50.
func Figure6(o Options) Figure6Result {
	o.fill()
	o.section("Figure 6: per-service power variation at 60 s window")

	var shares []topology.ServiceShare
	for _, svc := range workload.ServiceNames() {
		gen := "haswell2015"
		if svc == "f4storage" {
			gen = "westmere2011"
		}
		shares = append(shares, topology.ServiceShare{Service: svc, Generation: gen, Weight: 1})
	}
	spec := topology.DefaultSpec()
	spec.MSBs, spec.SBsPerMSB, spec.RPPsPerSB = 1, 1, 2
	spec.RacksPerRPP = 6
	spec.ServersPerRack = o.scaleInt(15, 5)
	spec.Services = shares

	s := newSim(sim.Config{Spec: spec, Seed: o.Seed})
	var ids []string
	for _, srv := range s.Topo.Servers() {
		ids = append(ids, string(srv.ID))
	}
	s.RecordServers(3*time.Second, ids...)
	dur := o.scaleDur(3*time.Hour, 30*time.Minute)
	s.Run(dur)

	res := Figure6Result{
		P50:  map[string]float64{},
		P99:  map[string]float64{},
		Dist: map[string]*metrics.Distribution{},
	}
	pooled := map[string][]float64{}
	for _, srv := range s.Topo.Servers() {
		series := s.ServerSeries(string(srv.ID))
		mean := series.Mean()
		if mean <= 0 {
			continue
		}
		for _, v := range series.WindowVariations(60 * time.Second) {
			pooled[srv.Service] = append(pooled[srv.Service], v/mean)
		}
	}
	o.printf("%-12s %10s %10s\n", "service", "p50", "p99")
	for _, svc := range workload.ServiceNames() {
		d := metrics.NewDistribution(pooled[svc])
		res.Dist[svc] = d
		res.P50[svc] = d.Percentile(50)
		res.P99[svc] = d.Percentile(99)
		o.printf("%-12s %9.1f%% %9.1f%%\n", svc, res.P50[svc]*100, res.P99[svc]*100)
	}
	return res
}
