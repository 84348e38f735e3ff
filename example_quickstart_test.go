package dynamo_test

import (
	"fmt"
	"time"

	"dynamo"
)

// Example_quickstart builds a small simulated data center, runs it under
// the Dynamo controller hierarchy, then squeezes its breaker ratings to
// watch coordinated capping keep the fleet safe.
func Example_quickstart() {
	// A small OCP-style data center with the paper's service mix: one
	// MSB, two switch boards, eight rows, ~2,000 servers scaled down to
	// something a laptop simulates in moments.
	spec := dynamo.DefaultDatacenterSpec().Scale(240)

	// Oversubscribe aggressively: every breaker rated for only ~80% of
	// what its children can draw at peak.
	worstPerServer := dynamo.ServerGenerations()["haswell2015"].MaxPower(false)
	perRPP := spec.RacksPerRPP * spec.ServersPerRack
	spec.RPPRating = dynamo.Watts(float64(worstPerServer) * float64(perRPP) * 0.80)
	spec.SBRating = spec.RPPRating * dynamo.Watts(spec.RPPsPerSB) * 0.9
	spec.MSBRating = spec.SBRating * dynamo.Watts(spec.SBsPerMSB) * 0.95

	s, err := dynamo.NewSimulation(dynamo.SimConfig{
		Spec:         spec,
		Seed:         42,
		EnableDynamo: true,
	})
	if err != nil {
		panic(err)
	}

	fmt.Printf("data center: %d servers, %d power devices, %d Dynamo controllers\n",
		len(s.Servers), len(s.Breakers), s.Hierarchy.NumControllers())

	// Simulate a busy mid-day hour: fast-forward the diurnal cycle to
	// 11:00, then push extra traffic at every service.
	s.SetTickInterval(30 * time.Second)
	s.Run(11 * time.Hour)
	s.SetTickInterval(time.Second)
	for _, svc := range []string{"web", "cache", "newsfeed", "database"} {
		s.SetServiceLoadFactor(svc, 1.3)
	}

	for i := 0; i < 10; i++ {
		s.Run(6 * time.Minute)
		fmt.Printf("t=%-9v total=%-12v capped=%-4d trips=%d\n",
			s.Loop.Now().Round(time.Second), s.TotalPower(),
			s.CappedServerCount(), len(s.Trips))
	}

	fmt.Println()
	if len(s.Trips) == 0 {
		fmt.Println("one busy hour at 80% breaker ratings: zero breaker trips.")
	} else {
		fmt.Printf("breaker trips: %d (unexpected!)\n", len(s.Trips))
	}
	fmt.Printf("servers currently capped: %d\n", s.CappedServerCount())
	for _, a := range s.Alerts {
		fmt.Println("alert:", a)
	}

	// Output:
	// data center: 240 servers, 12 power devices, 4 Dynamo controllers
	// t=11h6m0s   total=52.76 kW     capped=157  trips=0
	// t=11h12m0s  total=52.44 kW     capped=157  trips=0
	// t=11h18m0s  total=52.56 kW     capped=157  trips=0
	// t=11h24m0s  total=52.81 kW     capped=157  trips=0
	// t=11h30m0s  total=52.88 kW     capped=157  trips=0
	// t=11h36m0s  total=52.72 kW     capped=160  trips=0
	// t=11h42m0s  total=52.62 kW     capped=160  trips=0
	// t=11h48m0s  total=52.84 kW     capped=160  trips=0
	// t=11h54m0s  total=52.73 kW     capped=160  trips=0
	// t=12h0m0s   total=52.99 kW     capped=165  trips=0
	//
	// one busy hour at 80% breaker ratings: zero breaker trips.
	// servers currently capped: 165
}
