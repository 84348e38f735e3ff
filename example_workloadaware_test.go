package dynamo_test

import (
	"fmt"
	"time"

	"dynamo"
)

// Example_workloadAware is workload-aware capping (paper §III-C3, Fig
// 15/16): a row mixing web, cache, and news feed servers is forced to shed
// power. The leaf controller consumes priority groups lowest-first with
// high-bucket-first fairness inside each group — cache (protecting many
// users per server) is never touched, and no cap goes below the 210 W SLA
// floor.
func Example_workloadAware() {
	spec := dynamo.DefaultDatacenterSpec()
	spec.MSBs, spec.SBsPerMSB, spec.RPPsPerSB = 1, 1, 1
	spec.RacksPerRPP, spec.ServersPerRack = 22, 10
	spec.Services = []dynamo.ServiceShare{
		{Service: "web", Generation: "haswell2015", Weight: 200},
		{Service: "cache", Generation: "haswell2015", Weight: 200},
		{Service: "newsfeed", Generation: "haswell2015", Weight: 40},
	}

	prio := dynamo.DefaultPriorityConfig()
	prio.MinCap = map[int]dynamo.Watts{2: 210, 4: 240}
	prio.DefaultMinCap = 210

	s, err := dynamo.NewSimulation(dynamo.SimConfig{
		Spec: spec, Seed: 11, EnableDynamo: true,
		Hierarchy: dynamo.HierarchyConfig{Priorities: prio},
	})
	if err != nil {
		panic(err)
	}
	rpp := s.Topo.Devices()[2].ID // the single RPP (after MSB, SB)
	leaf := s.Hierarchy.Leaf(rpp)

	servicePower := func(svc string) dynamo.Watts {
		var sum dynamo.Watts
		for _, srv := range s.Topo.ServersUnder(rpp) {
			if srv.Service == svc {
				sum += s.Servers[string(srv.ID)].Power()
			}
		}
		return sum
	}
	cappedOf := func(svc string) int {
		n := 0
		for _, srv := range s.Topo.ServersUnder(rpp) {
			if srv.Service == svc {
				if _, ok := s.Servers[string(srv.ID)].Limit(); ok {
					n++
				}
			}
		}
		return n
	}
	report := func() {
		fmt.Printf("t=%-7v total=%-11v web=%v/%d capped, cache=%v/%d capped, feed=%v/%d capped\n",
			s.Loop.Now().Round(time.Second), s.DevicePower(rpp),
			servicePower("web"), cappedOf("web"),
			servicePower("cache"), cappedOf("cache"),
			servicePower("newsfeed"), cappedOf("newsfeed"))
	}

	s.Run(6 * time.Minute)
	fmt.Println("before the test:")
	report()

	// Manually lower the capping threshold (the paper's production test
	// methodology) so a power cut must be distributed across the row.
	agg, _ := leaf.LastAggregate()
	frac := float64(agg) / float64(leaf.EffectiveLimit())
	if err := leaf.SetBands(dynamo.BandConfig{
		CapThresholdFrac:   frac * 0.97,
		CapTargetFrac:      frac * 0.90,
		UncapThresholdFrac: frac * 0.85,
	}); err != nil {
		panic(err)
	}
	fmt.Println("\ncapping threshold lowered; watch who absorbs the cut:")
	for i := 0; i < 4; i++ {
		s.Run(3 * time.Minute)
		report()
	}

	// Show the Fig 16 signature: the lowest assigned cap.
	lowest := dynamo.Watts(1 << 20)
	capped := 0
	for _, srv := range s.Topo.ServersUnder(rpp) {
		if lim, ok := s.Servers[string(srv.ID)].Limit(); ok {
			capped++
			if lim < lowest {
				lowest = lim
			}
		}
	}
	fmt.Printf("\n%d servers capped; lowest cap assigned: %v (SLA floor 210 W)\n", capped, lowest)
	if cappedOf("cache") == 0 {
		fmt.Println("cache: untouched — higher priority group, exactly as in the paper.")
	}

	if err := leaf.SetBands(dynamo.DefaultBandConfig()); err != nil {
		panic(err)
	}
	s.Run(5 * time.Minute)
	fmt.Println("\nafter restoring the threshold:")
	report()

	// Output:
	// before the test:
	// t=6m0s    total=36.28 kW    web=14.44 kW/0 capped, cache=15.17 kW/0 capped, feed=3.37 kW/0 capped
	//
	// capping threshold lowered; watch who absorbs the cut:
	// t=9m0s    total=37.81 kW    web=15.22 kW/7 capped, cache=16.25 kW/0 capped, feed=3.04 kW/14 capped
	// t=12m0s   total=36.64 kW    web=14.36 kW/19 capped, cache=16.13 kW/0 capped, feed=2.84 kW/18 capped
	// t=15m0s   total=37.76 kW    web=15.16 kW/29 capped, cache=15.91 kW/0 capped, feed=3.39 kW/19 capped
	// t=18m0s   total=36.44 kW    web=14.15 kW/33 capped, cache=15.96 kW/0 capped, feed=3.03 kW/20 capped
	//
	// 53 servers capped; lowest cap assigned: 210.0 W (SLA floor 210 W)
	// cache: untouched — higher priority group, exactly as in the paper.
	//
	// after restoring the threshold:
	// t=23m0s   total=36.70 kW    web=14.94 kW/0 capped, cache=15.45 kW/0 capped, feed=3.01 kW/0 capped
}
