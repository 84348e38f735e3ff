package experiments

import (
	"sort"
	"time"

	"dynamo/internal/core"
	"dynamo/internal/metrics"
	"dynamo/internal/power"
	"dynamo/internal/sim"
	"dynamo/internal/topology"
)

// fig15Setup builds the paper's mixed row: ~200 web, ~200 cache, and ~40
// news feed servers behind one leaf controller, with cache in a higher
// priority group.
func fig15Setup(o Options) (*sim.Sim, topology.NodeID) {
	spec := topology.DefaultSpec()
	spec.MSBs, spec.SBsPerMSB, spec.RPPsPerSB = 1, 1, 1
	spec.ServersPerRack = o.scaleInt(20, 5)
	spec.RacksPerRPP = 22
	spec.Services = []topology.ServiceShare{
		{Service: "web", Generation: "haswell2015", Weight: 200},
		{Service: "cache", Generation: "haswell2015", Weight: 200},
		{Service: "newsfeed", Generation: "haswell2015", Weight: 40},
	}
	prio := core.DefaultPriorityConfig()
	// The Fig 16 snapshot uses a 210 W floor for the affected groups.
	prio.MinCap = map[int]power.Watts{2: 210, 4: 240}
	prio.DefaultMinCap = 210

	s := newSim(sim.Config{
		Spec: spec, Seed: o.Seed, EnableDynamo: true,
		Hierarchy: core.HierarchyConfig{Priorities: prio},
	})
	return s, s.Topo.OfKind(topology.KindRPP)[0].ID
}

// Figure15Result holds the workload-aware capping demonstration: total row
// power plus per-service breakdown while capping is manually triggered.
type Figure15Result struct {
	Total     *metrics.Series
	ByService map[string]*metrics.Series
	// CacheCappedDuring is how many cache servers were ever capped
	// (paper: zero — cache is in a higher priority group).
	CacheCappedDuring int
	// WebCappedDuring / FeedCappedDuring must be positive.
	WebCappedDuring, FeedCappedDuring int
	// CapWindow is when capping was active.
	CapStart, CapEnd time.Duration
}

// Figure15 manually lowers the leaf's capping threshold (the paper's test
// methodology) and shows that web and news feed absorb the cut while cache
// is untouched.
func Figure15(o Options) Figure15Result {
	o.fill()
	o.section("Figure 15: workload-aware capping for a mixed web/cache/feed row")

	s, rppID := fig15Setup(o)
	leaf := s.Hierarchy.Leaf(rppID)

	res := Figure15Result{
		Total:     metrics.NewSeries(512),
		ByService: map[string]*metrics.Series{},
	}
	for _, svc := range []string{"web", "cache", "newsfeed"} {
		res.ByService[svc] = metrics.NewSeries(512)
	}
	servicePower := func(svc string) power.Watts {
		var sum power.Watts
		for _, srv := range s.Topo.ServersUnder(rppID) {
			if srv.Service == svc {
				sum += s.Servers[string(srv.ID)].Power()
			}
		}
		return sum
	}
	cappedOf := func(svc string) int {
		n := 0
		for _, srv := range s.Topo.ServersUnder(rppID) {
			if srv.Service != svc {
				continue
			}
			if _, ok := s.Servers[string(srv.ID)].Limit(); ok {
				n++
			}
		}
		return n
	}
	probe := func() {
		now := s.Loop.Now()
		res.Total.Add(now, float64(s.DevicePower(rppID)))
		for svc, series := range res.ByService {
			series.Add(now, float64(servicePower(svc)))
		}
		if n := cappedOf("cache"); n > res.CacheCappedDuring {
			res.CacheCappedDuring = n
		}
		if n := cappedOf("web"); n > res.WebCappedDuring {
			res.WebCappedDuring = n
		}
		if n := cappedOf("newsfeed"); n > res.FeedCappedDuring {
			res.FeedCappedDuring = n
		}
	}
	for t := time.Duration(0); t <= 30*time.Minute; t += 3 * time.Second {
		s.At(t, probe)
	}

	// Warm up, then manually lower the threshold for ~12 minutes (the
	// paper's 1:50–2:02 PM window).
	res.CapStart, res.CapEnd = 8*time.Minute, 20*time.Minute
	s.At(res.CapStart, func() {
		agg, _ := leaf.LastAggregate()
		limit := float64(leaf.EffectiveLimit())
		frac := float64(agg) / limit
		_ = leaf.SetBands(core.BandConfig{
			CapThresholdFrac:   frac * 0.97,
			CapTargetFrac:      frac * 0.92,
			UncapThresholdFrac: frac * 0.87,
		})
	})
	s.At(res.CapEnd, func() {
		_ = leaf.SetBands(core.DefaultBandConfig())
	})
	s.Run(30 * time.Minute)

	o.printf("capping active %v–%v\n", res.CapStart, res.CapEnd)
	o.printf("max capped: web=%d cache=%d feed=%d\n",
		res.WebCappedDuring, res.CacheCappedDuring, res.FeedCappedDuring)
	o.printf("%-8s %10s %10s %10s %10s\n", "t(min)", "total(kW)", "web(kW)", "cache(kW)", "feed(kW)")
	for i := 0; i < res.Total.Len(); i += 40 { // every 2 minutes
		ts, total := res.Total.At(i)
		_, w := res.ByService["web"].At(i)
		_, c := res.ByService["cache"].At(i)
		_, f := res.ByService["newsfeed"].At(i)
		o.printf("%-8.0f %10.1f %10.1f %10.1f %10.1f\n",
			ts.Minutes(), total/1000, w/1000, c/1000, f/1000)
	}
	return res
}

// ServerSnap is one server's state in the Fig 16 snapshot.
type ServerSnap struct {
	ID      string
	Service string
	Power   power.Watts
	Cap     power.Watts
	Capped  bool
}

// Figure16Result is the per-server power/cap snapshot taken during an
// active capping event (paper Fig 16).
type Figure16Result struct {
	Servers []ServerSnap
	// MinCapSeen is the lowest cap assigned (paper: ≥ 210 W).
	MinCapSeen power.Watts
}

// Figure16 reruns the Fig 15 scenario and snapshots every server's current
// power and computed cap mid-event: high-bucket-first means only servers
// above the bucket floor are capped, cache is untouched, and every cap is
// at least the 210 W floor.
func Figure16(o Options) Figure16Result {
	o.fill()
	o.section("Figure 16: per-server power and computed caps during capping")

	s, rppID := fig15Setup(o)
	leaf := s.Hierarchy.Leaf(rppID)
	s.At(8*time.Minute, func() {
		agg, _ := leaf.LastAggregate()
		frac := float64(agg) / float64(leaf.EffectiveLimit())
		_ = leaf.SetBands(core.BandConfig{
			CapThresholdFrac:   frac * 0.97,
			CapTargetFrac:      frac * 0.92,
			UncapThresholdFrac: frac * 0.87,
		})
	})
	var res Figure16Result
	res.MinCapSeen = power.Watts(1 << 20)
	s.At(12*time.Minute, func() { // mid-event snapshot
		for _, srv := range s.Topo.ServersUnder(rppID) {
			sv := s.Servers[string(srv.ID)]
			cap, capped := sv.Limit()
			res.Servers = append(res.Servers, ServerSnap{
				ID: string(srv.ID), Service: srv.Service,
				Power: sv.Power(), Cap: cap, Capped: capped,
			})
			if capped && cap < res.MinCapSeen {
				res.MinCapSeen = cap
			}
		}
	})
	s.Run(13 * time.Minute)

	// Sort by service then current power, like the figure's x-axis.
	sort.Slice(res.Servers, func(i, j int) bool {
		if res.Servers[i].Service != res.Servers[j].Service {
			return res.Servers[i].Service < res.Servers[j].Service
		}
		return res.Servers[i].Power < res.Servers[j].Power
	})

	o.printf("%d servers snapshotted; lowest cap assigned: %v\n", len(res.Servers), res.MinCapSeen)
	o.printf("%-10s %8s %8s %8s\n", "service", "power", "cap", "capped")
	step := len(res.Servers) / 30
	if step == 0 {
		step = 1
	}
	for i := 0; i < len(res.Servers); i += step {
		sn := res.Servers[i]
		capStr := "-"
		if sn.Capped {
			capStr = sn.Cap.String()
		}
		o.printf("%-10s %8.0f %8s %8v\n", sn.Service, float64(sn.Power), capStr, sn.Capped)
	}
	return res
}
