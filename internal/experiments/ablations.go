package experiments

import (
	"fmt"
	"time"

	"dynamo/internal/agent"
	"dynamo/internal/core"
	"dynamo/internal/platform"
	"dynamo/internal/power"
	"dynamo/internal/rpc"
	"dynamo/internal/server"
	"dynamo/internal/sim"
	"dynamo/internal/simclock"
	"dynamo/internal/topology"
)

// AblationsResult sets each design choice the paper argues for against
// the alternative it argues against.
type AblationsResult struct {
	// Leaf cap transitions over 5 minutes of sustained overload (§III-C).
	ThreeBandCaps, SingleThresholdCaps uint64
	// Breaker trips under a saturating RPP surge, by leaf poll (§II-C).
	Trips3s, Trips2min int
	// Servers a 3 kW cut caps: 20 W buckets vs one 10 kW bucket (§III-D).
	BucketedCapped, UniformCapped int
	// A capped leaf's aggregate over its limit after 5 minutes.
	ThreeBandSettle, PIDSettle float64
}

// Ablations runs the four design ablations. Their rigs are a few dozen
// servers, so Scale does not shrink them; Seed drives the sensor noise
// and the surge fleet.
func Ablations(o Options) AblationsResult {
	o.fill()
	o.section("Ablations: the paper's design choices against their alternatives")

	var res AblationsResult
	three := overloadedLeaf(o.Seed, core.LeafConfig{})
	res.ThreeBandCaps, res.ThreeBandSettle = three.CapEvents(), settled(three)
	// A single threshold: uncap just under where capping starts.
	single := core.BandConfig{CapThresholdFrac: 0.99, CapTargetFrac: 0.95, UncapThresholdFrac: 0.985}
	res.SingleThresholdCaps = overloadedLeaf(o.Seed, core.LeafConfig{Bands: single}).CapEvents()
	res.PIDSettle = settled(overloadedLeaf(o.Seed, core.LeafConfig{UsePID: true}))
	res.Trips3s, res.Trips2min = surgeTrips(o.Seed, 3*time.Second), surgeTrips(o.Seed, 2*time.Minute)
	res.BucketedCapped, res.UniformCapped = cutPlacement(20), cutPlacement(power.KW(10))

	const row = "%-32s %-28s %10v %12v\n"
	o.printf(row, "ablation", "metric", "paper", "alternative")
	o.printf(row, "three-band vs single threshold", "cap transitions in 5 min", res.ThreeBandCaps, res.SingleThresholdCaps)
	o.printf(row, "3 s vs 2 min leaf poll", "breaker trips", res.Trips3s, res.Trips2min)
	o.printf(row, "high-bucket-first vs uniform", "servers capped for 3 kW", res.BucketedCapped, res.UniformCapped)
	o.printf(row, "three-band vs PID", "settled power / limit",
		fmt.Sprintf("%.4f", res.ThreeBandSettle), fmt.Sprintf("%.4f", res.PIDSettle))
	return res
}

// overloadedLeaf runs one leaf for 5 minutes over ten web servers at load
// 0.8 (~2.95 kW) behind a 2.8 kW limit, each read through a noisy MSR
// sensor over the in-process RPC network.
func overloadedLeaf(seed int64, cfg core.LeafConfig) *core.Leaf {
	loop := simclock.NewSimLoop()
	net := rpc.NewNetwork(loop, time.Millisecond, 1)
	hosts := make([]*server.Server, 10)
	refs := make([]core.AgentRef, len(hosts))
	for i := range hosts {
		id := fmt.Sprintf("w%02d", i)
		hosts[i] = server.New(server.Config{ID: id, Service: "web", Model: server.MustModel("haswell2015"),
			Source: server.LoadFunc(func(time.Duration) float64 { return 0.8 })})
		plat := platform.NewMSR(hosts[i], platform.Options{Seed: seed*100 + int64(i)})
		net.Register(core.AgentAddr(id), agent.New(id, "web", "haswell2015", plat).Handler())
		refs[i] = core.AgentRef{ServerID: id, Service: "web", Generation: "haswell2015", Client: net.Dial(core.AgentAddr(id))}
	}
	simclock.NewTicker(loop, time.Second, func() {
		for _, h := range hosts {
			h.Tick(loop.Now())
		}
	}).Start()
	cfg.DeviceID, cfg.Limit = "rpp", 2800
	leaf := core.NewLeaf(loop, cfg, refs)
	leaf.Start()
	loop.RunUntil(5 * time.Minute)
	return leaf
}

func settled(l *core.Leaf) float64 {
	agg, _ := l.LastAggregate()
	return float64(agg) / 2800
}

// surgeTrips counts breaker trips when an RPP of 60 web servers, rated so
// that saturation draws 1.45× its limit, surges to saturation for 20
// minutes under a leaf polling every poll.
func surgeTrips(seed int64, poll time.Duration) int {
	spec := topology.DefaultSpec()
	spec.MSBs, spec.SBsPerMSB, spec.RPPsPerSB = 1, 1, 1
	spec.RacksPerRPP, spec.ServersPerRack = 3, 20
	spec.Services = []topology.ServiceShare{{Service: "web", Generation: "haswell2015", Weight: 1}}
	spec.RPPRating = (power.Watts(spec.NumServers())*345 + 3*150) / 1.45
	spec.SBRating, spec.MSBRating = spec.RPPRating*4, spec.RPPRating*8
	s := newSim(sim.Config{Spec: spec, Seed: seed, EnableDynamo: true})
	for _, l := range s.Hierarchy.Leaves {
		l.SetPollInterval(poll)
	}
	s.Run(2 * time.Minute)
	s.SetExtraLoadUnder(s.Topo.OfKind(topology.KindRPP)[0].ID, 0.9)
	s.Run(20 * time.Minute)
	return len(s.Trips)
}

// cutPlacement returns how many servers a 3 kW cut over 400 web and
// newsfeed servers drawing 200–339 W caps with the given bucket width.
func cutPlacement(bucket power.Watts) int {
	servers := make([]core.ServerState, 400)
	for i := range servers {
		servers[i] = core.ServerState{ID: fmt.Sprintf("s%03d", i),
			Service: []string{"web", "newsfeed"}[i%2], Power: power.Watts(200 + i%140)}
	}
	cfg := core.DefaultPriorityConfig()
	cfg.BucketSize = bucket
	return len(core.ComputePlan(servers, power.KW(3), cfg).Caps)
}
