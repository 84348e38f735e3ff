package core

// AgentAddr returns the RPC address convention for a server's agent.
func AgentAddr(serverID string) string { return "agent/" + serverID }

// CtrlAddr returns the RPC address convention for a device's controller.
func CtrlAddr(deviceID string) string { return "ctrl/" + deviceID }

// HierarchyConfig holds what a simulation may vary about the controller
// tree it assembles; everything else derives from the simulation's own
// configuration (see sim.Config).
type HierarchyConfig struct {
	// Bands applies to every controller; zero value means paper defaults.
	Bands BandConfig
	// Priorities applies to every leaf; zero value means paper defaults.
	Priorities PriorityConfig
	// ControlWorkers sizes the cohort scheduler's worker pool for the
	// observe+decide phases of controllers due at the same virtual instant
	// (mirroring sim.Config.TickWorkers for the physics step). 0 means
	// GOMAXPROCS, 1 batches cohorts but runs their phases on the loop
	// goroutine; results are byte-identical at any value.
	ControlWorkers int
}
