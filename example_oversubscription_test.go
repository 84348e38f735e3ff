package dynamo_test

import (
	"fmt"
	"time"

	"dynamo"
)

// buildOversubscribed is a Hadoop cluster behind one switch board whose
// power plan never budgeted for Turbo Boost. With Turbo on, Dynamo guards
// the board; with it off, the fleet's worst case is under the limit and
// the run needs no controllers.
func buildOversubscribed(turbo bool) (*dynamo.Simulation, dynamo.Watts) {
	spec := dynamo.DefaultDatacenterSpec()
	spec.MSBs, spec.SBsPerMSB, spec.RPPsPerSB = 1, 1, 8
	spec.RacksPerRPP, spec.ServersPerRack = 1, 15
	spec.Services = []dynamo.ServiceShare{{Service: "hadoop", Generation: "haswell2015", Weight: 1}}

	model := dynamo.ServerGenerations()["haswell2015"]
	turboWorst := dynamo.Watts(float64(spec.NumServers()) * float64(model.MaxPower(true)))
	limit := dynamo.Watts(float64(turboWorst) * 0.98)
	spec.SBRating = limit
	spec.RPPRating = limit / 4
	spec.MSBRating = limit * 2

	s, err := dynamo.NewSimulation(dynamo.SimConfig{
		Spec: spec, Seed: 3, EnableDynamo: turbo,
		LoadScale: map[string]float64{"hadoop": 1.35},
		Turbo:     map[string]bool{"hadoop": turbo},
		Hierarchy: dynamo.HierarchyConfig{
			Bands: dynamo.BandConfig{CapThresholdFrac: 0.99, CapTargetFrac: 0.975, UncapThresholdFrac: 0.90},
		},
	})
	if err != nil {
		panic(err)
	}
	return s, limit
}

// Example_oversubscription is dynamic power oversubscription (paper
// §IV-B). Without Dynamo, enabling Turbo would risk tripping the switch
// board on correlated job waves; with Dynamo as a safety net, Turbo runs
// fleet-wide and capping shaves only the wave crests — trading a little
// throttling for a large throughput win, exactly the paper's Fig 14 trade.
func Example_oversubscription() {
	const day = 12 * time.Hour

	fmt.Println("=== no Turbo (power plan's assumption) ===")
	base, limit := buildOversubscribed(false)
	base.SetTickInterval(3 * time.Second)
	base.Run(day)
	baseStats := base.StatsForService("hadoop")
	fmt.Printf("delivered work: %.0f CPU-s, trips: %d\n", baseStats.Delivered, len(base.Trips))

	fmt.Println("\n=== Turbo everywhere, Dynamo as safety net ===")
	boost, _ := buildOversubscribed(true)
	boost.SetTickInterval(3 * time.Second)
	episodes, inEpisode, maxCapped := 0, false, 0
	for t := time.Duration(0); t < day; t += 10 * time.Minute {
		boost.Run(10 * time.Minute)
		n := boost.CappedServerCount()
		if n > 0 && !inEpisode {
			inEpisode = true
			episodes++
		}
		if n == 0 {
			inEpisode = false
		}
		if n > maxCapped {
			maxCapped = n
		}
	}
	boostStats := boost.StatsForService("hadoop")

	fmt.Printf("SB limit:        %v (Turbo worst-case exceeds it)\n", limit)
	fmt.Printf("delivered work:  %.0f CPU-s, trips: %d\n", boostStats.Delivered, len(boost.Trips))
	fmt.Printf("capping:         %d episodes, up to %d servers throttled slightly\n", episodes, maxCapped)
	gain := boostStats.Delivered/baseStats.Delivered - 1
	fmt.Printf("\nthroughput gain: %+.1f%% (saturated per-server Turbo headroom is +13%%)\n", gain*100)
	if len(boost.Trips) == 0 {
		fmt.Println("power safety:    no breaker trips — oversubscription was safe")
	}

	// Output:
	// === no Turbo (power plan's assumption) ===
	// delivered work: 4170954 CPU-s, trips: 0
	//
	// === Turbo everywhere, Dynamo as safety net ===
	// SB limit:        48.71 kW (Turbo worst-case exceeds it)
	// delivered work:  4271144 CPU-s, trips: 0
	// capping:         4 episodes, up to 118 servers throttled slightly
	//
	// throughput gain: +2.4% (saturated per-server Turbo headroom is +13%)
	// power safety:    no breaker trips — oversubscription was safe
}
