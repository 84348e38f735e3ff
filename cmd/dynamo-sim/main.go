// Command dynamo-sim runs a simulated data center under the Dynamo
// controller hierarchy and reports power behaviour, capping activity,
// alerts, and breaker safety.
//
// Usage:
//
//	dynamo-sim [-servers 960] [-hours 24] [-seed 1] [-dynamo=true]
//	           [-oversubscribe 1.0] [-surge-at -1] [-full]
//	           [-tick-workers 0] [-control-workers 0]
//
// -oversubscribe shrinks every breaker rating by the given factor,
// emulating aggressive power subscription; -surge-at injects a traffic
// surge (hours from start) onto one row to exercise capping.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"dynamo/internal/config"
	"dynamo/internal/core"
	"dynamo/internal/monitor"
	"dynamo/internal/power"
	"dynamo/internal/sim"
	"dynamo/internal/topology"
)

func main() {
	servers := flag.Int("servers", 960, "approximate fleet size")
	hours := flag.Float64("hours", 24, "simulated duration in hours")
	seed := flag.Int64("seed", 1, "random seed")
	dynamo := flag.Bool("dynamo", true, "enable the Dynamo controller hierarchy")
	oversub := flag.Float64("oversubscribe", 1.0, "divide breaker ratings by this factor")
	surgeAt := flag.Float64("surge-at", -1, "inject a row surge at this hour (-1: none)")
	full := flag.Bool("full", false, "build the full 30 MW paper topology (overrides -servers)")
	tickWorkers := flag.Int("tick-workers", 0, "worker pool size for the per-server physics step (0: one per CPU); results are byte-identical at any setting")
	ctrlWorkers := flag.Int("control-workers", 0, "worker pool size for controller observe+decide phases (0: one per CPU); results are byte-identical at any setting")
	flag.Parse()

	var fc config.FlagCheck
	fc.PositiveInt("servers", *servers)
	fc.PositiveFloat("hours", *hours)
	fc.PositiveFloat("oversubscribe", *oversub)
	fc.NonNegativeInt("tick-workers", *tickWorkers)
	fc.NonNegativeInt("control-workers", *ctrlWorkers)
	if err := fc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	spec := topology.DefaultSpec()
	if *full {
		spec = topology.FullSpec()
	} else {
		spec = spec.Scale(*servers)
	}
	if *oversub > 1 {
		spec.MSBRating = power.Watts(float64(power.ClassMSB.DefaultRating()) / *oversub)
		spec.SBRating = power.Watts(float64(power.ClassSB.DefaultRating()) / *oversub)
		spec.RPPRating = power.Watts(float64(power.ClassRPP.DefaultRating()) / *oversub)
	}

	s, err := sim.New(sim.Config{
		Spec: spec, Seed: *seed, EnableDynamo: *dynamo,
		ValidatorInterval: time.Minute,
		TickWorkers:       *tickWorkers,
		Hierarchy:         core.HierarchyConfig{ControlWorkers: *ctrlWorkers},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("topology: %d servers, %d devices, %d controllers\n",
		len(s.Servers), len(s.Breakers), controllers(s))

	if *surgeAt >= 0 {
		rpp := s.Topo.OfKind(topology.KindRPP)[0]
		at := time.Duration(*surgeAt * float64(time.Hour))
		s.At(at, func() {
			fmt.Printf("[%v] injecting surge on %s\n", at, rpp.ID)
			s.SetExtraLoadUnder(rpp.ID, 0.4)
		})
		s.At(at+30*time.Minute, func() { s.SetExtraLoadUnder(rpp.ID, 0) })
	}

	mon := monitor.New(monitor.Config{})
	dur := time.Duration(*hours * float64(time.Hour))
	s.SetTickInterval(3 * time.Second)
	step := dur / 12
	if step < time.Minute {
		step = time.Minute
	}
	for t := time.Duration(0); t < dur; t += step {
		s.Run(step)
		mon.Observe(s.Loop.Now(), s.Observations())
		fmt.Printf("t=%-8v total=%-12v capped=%-5d trips=%d alerts=%d\n",
			s.Loop.Now().Round(time.Second), s.TotalPower(),
			s.CappedServerCount(), len(s.Trips), len(s.Alerts))
	}

	fmt.Printf("\nsummary after %v:\n", dur)
	fmt.Printf("  breaker trips:     %d\n", len(s.Trips))
	for _, tr := range s.Trips {
		fmt.Printf("    %s (%v) tripped at %v drawing %v\n", tr.Device, tr.Class, tr.At, tr.Draw)
	}
	fmt.Printf("  alerts:            %d\n", len(s.Alerts))
	for i, a := range s.Alerts {
		if i >= 10 {
			fmt.Printf("    ... and %d more\n", len(s.Alerts)-10)
			break
		}
		fmt.Printf("    %v\n", a)
	}
	fmt.Printf("  capped servers:    %d\n", s.CappedServerCount())
	fmt.Println("\nstranded power by level (limit − observed peak; the oversubscription target):")
	stranded := mon.StrandedByClass()
	for _, class := range power.Classes() {
		if v, ok := stranded[class]; ok {
			fmt.Printf("  %-5v %v\n", class, v)
		}
	}
	fmt.Printf("fleet capacity utilization at SB level: %.0f%%\n",
		mon.CapacityUtilization(power.ClassSB)*100)
	if len(s.Trips) == 0 {
		fmt.Println("  power safety:      no breaker trips")
	} else if !*dynamo {
		fmt.Println("  power safety:      TRIPPED (run with -dynamo=true to protect)")
	}
}

func controllers(s *sim.Sim) int {
	if s.Hierarchy == nil {
		return 0
	}
	return s.Hierarchy.NumControllers()
}
