package dynamo_test

import (
	"fmt"
	"time"

	"dynamo"
)

// buildSurgeScenario is one switch board over eight rows of web servers,
// oversubscribed against the rows' combined worst case, fast-forwarded to
// 11:00.
func buildSurgeScenario(enable bool) *dynamo.Simulation {
	const racks, perRack = 2, 12
	spec := dynamo.DefaultDatacenterSpec()
	spec.MSBs, spec.SBsPerMSB, spec.RPPsPerSB = 1, 1, 8
	spec.RacksPerRPP, spec.ServersPerRack = racks, perRack
	spec.Services = []dynamo.ServiceShare{{Service: "web", Generation: "haswell2015", Weight: 1}}
	worst := dynamo.ServerGenerations()["haswell2015"].MaxPower(false)
	rowWorst := dynamo.Watts(float64(worst)*float64(racks*perRack)) + racks*150
	spec.RPPRating = rowWorst * 2
	spec.SBRating = dynamo.Watts(float64(rowWorst) * 8 / 1.25)
	spec.MSBRating = spec.SBRating * 2
	spec.QuotaFraction = 0.92

	s, err := dynamo.NewSimulation(dynamo.SimConfig{
		Spec: spec, Seed: 7, EnableDynamo: enable,
	})
	if err != nil {
		panic(err)
	}

	// Fast-forward the diurnal cycle to 11:00; the incident begins at noon.
	s.SetServiceLoadFactor("web", 0.9)
	s.SetTickInterval(30 * time.Second)
	s.Run(11 * time.Hour)
	s.SetTickInterval(time.Second)
	return s
}

// runSurge replays the incident and prints the fleet every half hour.
func runSurge(enable bool) (trips, maxCapped int) {
	s := buildSurgeScenario(enable)
	var rows []dynamo.NodeID
	for _, d := range s.Topo.Devices() {
		if d.Kind.String() == "rpp" {
			rows = append(rows, d.ID)
		}
	}

	// Timeline: outage at 12:00, oscillating recovery attempts, a surge
	// at 12:48 concentrated on three rows (recovering servers starting
	// simultaneously), drain at 13:35.
	s.At(12*time.Hour, func() { s.SetServiceLoadFactor("web", 0.25) })
	s.At(12*time.Hour+10*time.Minute, func() { s.SetServiceLoadFactor("web", 0.7) })
	s.At(12*time.Hour+20*time.Minute, func() { s.SetServiceLoadFactor("web", 0.35) })
	s.At(12*time.Hour+30*time.Minute, func() { s.SetServiceLoadFactor("web", 0.75) })
	s.At(12*time.Hour+48*time.Minute, func() {
		s.SetServiceLoadFactor("web", 0.92)
		for _, r := range rows[:3] {
			s.SetExtraLoadUnder(r, 1.0)
		}
	})
	s.At(13*time.Hour+35*time.Minute, func() {
		s.SetServiceLoadFactor("web", 0.8)
		for _, r := range rows[:3] {
			s.SetExtraLoadUnder(r, 0)
		}
	})

	label := "baseline   "
	if enable {
		label = "with Dynamo"
	}
	for t := 0; t < 42; t++ {
		s.Run(5 * time.Minute)
		if c := s.CappedServerCount(); c > maxCapped {
			maxCapped = c
		}
		if t%6 == 5 {
			fmt.Printf("[%s] t=%-9v total=%-12v capped=%-4d trips=%d\n",
				label, s.Loop.Now().Round(time.Minute), s.TotalPower(),
				s.CappedServerCount(), len(s.Trips))
		}
	}
	return len(s.Trips), maxCapped
}

// Example_surgeProtection replays an Altoona-style incident (paper Fig
// 12) — a site outage followed by a recovery surge that drives one switch
// board to well above its normal peak — first without Dynamo (the breaker
// trips and the rows go dark) and then with Dynamo (offender rows are
// capped and the data center rides the surge out).
func Example_surgeProtection() {
	fmt.Println("=== baseline: no Dynamo ===")
	baseTrips, _ := runSurge(false)
	fmt.Println("\n=== protected: Dynamo enabled ===")
	dynTrips, maxCapped := runSurge(true)

	fmt.Println()
	fmt.Printf("baseline breaker trips:  %d\n", baseTrips)
	fmt.Printf("protected breaker trips: %d (max %d servers capped during the surge)\n",
		dynTrips, maxCapped)
	if baseTrips > 0 && dynTrips == 0 {
		fmt.Println("outcome: Dynamo prevented the outage.")
	}

	// Output:
	// === baseline: no Dynamo ===
	// [baseline   ] t=11h30m0s  total=51.74 kW     capped=0    trips=0
	// [baseline   ] t=12h0m0s   total=28.58 kW     capped=0    trips=0
	// [baseline   ] t=12h30m0s  total=46.93 kW     capped=0    trips=0
	// [baseline   ] t=13h0m0s   total=2.40 kW      capped=0    trips=1
	// [baseline   ] t=13h30m0s  total=2.40 kW      capped=0    trips=1
	// [baseline   ] t=14h0m0s   total=2.40 kW      capped=0    trips=1
	// [baseline   ] t=14h30m0s  total=2.40 kW      capped=0    trips=1
	//
	// === protected: Dynamo enabled ===
	// [with Dynamo] t=11h30m0s  total=51.74 kW     capped=0    trips=0
	// [with Dynamo] t=12h0m0s   total=28.58 kW     capped=0    trips=0
	// [with Dynamo] t=12h30m0s  total=46.93 kW     capped=0    trips=0
	// [with Dynamo] t=13h0m0s   total=51.91 kW     capped=167  trips=0
	// [with Dynamo] t=13h30m0s  total=51.53 kW     capped=168  trips=0
	// [with Dynamo] t=14h0m0s   total=46.17 kW     capped=0    trips=0
	// [with Dynamo] t=14h30m0s  total=49.05 kW     capped=0    trips=0
	//
	// baseline breaker trips:  1
	// protected breaker trips: 0 (max 168 servers capped during the surge)
	// outcome: Dynamo prevented the outage.
}
