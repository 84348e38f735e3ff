// Package dynamo is the public API of this repository: a data center-wide
// power management system reproducing "Dynamo: Facebook's Data Center-Wide
// Power Management System" (ISCA 2016).
//
// The system has two major components, mirroring the paper:
//
//   - Agent: a lightweight per-server daemon that reads power (from a
//     sensor or an estimation model) and executes RAPL capping commands.
//   - Controllers: a hierarchy of leaf power controllers (one per
//     lowest-level power device; 3 s pull cycle, three-band cap/uncap
//     algorithm, priority-group + high-bucket-first capping plans) and
//     upper-level controllers (9 s cycle, punish-offender-first
//     coordination via contractual power limits).
//
// Everything runs against an event-loop abstraction with two
// implementations: a deterministic simulated clock used by the bundled
// data center simulator (see NewSimulation) and a wall clock used by the
// real-network daemons in cmd/dynamo-agentd and cmd/dynamo-suited.
//
// Quick start: build a simulated data center with the Dynamo hierarchy and
// watch it hold power under its breaker limits:
//
//	s, err := dynamo.NewSimulation(dynamo.SimConfig{
//	    Spec:         dynamo.DefaultDatacenterSpec(),
//	    Seed:         1,
//	    EnableDynamo: true,
//	})
//	if err != nil { ... }
//	s.Run(10 * time.Minute)
//
// The package's Example functions are runnable, output-checked scenarios
// (go test -run '^Example' -v .); internal/experiments holds the code
// that regenerates every table and figure in the paper.
package dynamo

import (
	"time"

	"dynamo/internal/agent"
	"dynamo/internal/config"
	"dynamo/internal/core"
	"dynamo/internal/metrics"
	"dynamo/internal/monitor"
	"dynamo/internal/platform"
	"dynamo/internal/power"
	"dynamo/internal/rpc"
	"dynamo/internal/server"
	"dynamo/internal/sim"
	"dynamo/internal/simclock"
	"dynamo/internal/statestore"
	"dynamo/internal/suite"
	"dynamo/internal/telemetry"
	"dynamo/internal/topology"
	"dynamo/internal/workload"
)

// Power units and breaker models.
type (
	// Watts is the power quantity used throughout the API.
	Watts = power.Watts
	// DeviceClass identifies a level of the power delivery hierarchy.
	DeviceClass = power.DeviceClass
	// TripCurve is an inverse-time circuit breaker characteristic.
	TripCurve = power.TripCurve
	// Breaker is a thermal circuit-breaker model.
	Breaker = power.Breaker
)

// Topology modelling.
type (
	// Topology is a power delivery hierarchy.
	Topology = topology.Topology
	// TopologyNode is one node of the hierarchy.
	TopologyNode = topology.Node
	// NodeID identifies a topology node.
	NodeID = topology.NodeID
	// DatacenterSpec describes an OCP-style data center to build.
	DatacenterSpec = topology.Spec
	// ServiceShare is one service's share of a data center's fleet.
	ServiceShare = topology.ServiceShare
)

// Event loops.
type (
	// Loop is the event-loop abstraction all components run on.
	Loop = simclock.Loop
	// SimLoop is the deterministic virtual-time loop.
	SimLoop = simclock.SimLoop
	// WallLoop is the real-time loop used by daemons.
	WallLoop = simclock.WallLoop
)

// RPC transports.
type (
	// RPCNetwork is the deterministic in-process transport.
	RPCNetwork = rpc.Network
	// RPCClient issues asynchronous calls to one endpoint.
	RPCClient = rpc.Client
	// RPCHandler serves requests at an endpoint.
	RPCHandler = rpc.Handler
	// TCPServer serves a handler over framed TCP.
	TCPServer = rpc.TCPServer
	// TCPClient is an RPC client over TCP.
	TCPClient = rpc.TCPClient
)

// Agent and platform layer.
type (
	// Agent is the per-server Dynamo agent.
	Agent = agent.Agent
	// Platform is the hardware-access layer beneath an agent.
	Platform = platform.Platform
	// PlatformOptions configure simulated sensor imperfections.
	PlatformOptions = platform.Options
	// EstimationModel maps CPU utilization to power for sensorless hosts.
	EstimationModel = platform.EstimationModel
)

// Controllers (the paper's primary contribution).
type (
	// LeafController protects one lowest-level power device.
	LeafController = core.Leaf
	// LeafConfig configures a leaf controller.
	LeafConfig = core.LeafConfig
	// UpperController coordinates child controllers.
	UpperController = core.Upper
	// UpperConfig configures an upper-level controller.
	UpperConfig = core.UpperConfig
	// AgentRef identifies a downstream agent.
	AgentRef = core.AgentRef
	// ChildRef identifies a downstream controller.
	ChildRef = core.ChildRef
	// BandConfig parameterizes the three-band algorithm.
	BandConfig = core.BandConfig
	// PriorityConfig maps services to priority groups and SLA floors.
	PriorityConfig = core.PriorityConfig
	// SuiteConfig describes a controller tree: the JSON deployment
	// configuration dynamo-suited loads.
	SuiteConfig = config.Suite
	// Hierarchy is an assembled controller tree (see BuildSuite).
	Hierarchy = suite.Assembly
	// HierarchyConfig customizes the controller tree a simulation
	// assembles.
	HierarchyConfig = core.HierarchyConfig
	// Alert is an operator-facing controller event.
	Alert = core.Alert
	// AlertLevel classifies alerts.
	AlertLevel = core.AlertLevel
	// AlertFunc receives alerts.
	AlertFunc = core.AlertFunc
	// CohortScheduler batches same-instant controller cycles and fans
	// their observe+decide phases over a bounded worker pool.
	CohortScheduler = core.CohortScheduler
	// TelemetrySink collects metrics and decision traces (nil disables).
	TelemetrySink = telemetry.Sink
	// Controller is the surface of a leaf or upper controller that a
	// Failover promotes.
	Controller = core.Controller
	// Failover promotes standby controllers when their primary fails.
	Failover = core.Failover
	// FailoverConfig configures failover supervision.
	FailoverConfig = core.FailoverConfig
)

// Replicated controller state store (cross-process failover).
type (
	// StateStore holds epoch-fenced checkpoint streams, one per
	// controller, and replicates them to peers for failover adoption.
	StateStore = statestore.Store
	// StateStoreEntry is one record of a checkpoint stream.
	StateStoreEntry = statestore.Entry
	// CheckpointWriter appends one controller's checkpoints to a store.
	CheckpointWriter = statestore.Writer
	// CheckpointShipper replicates a store's streams to peer stores.
	CheckpointShipper = statestore.Shipper
	// ShipperConfig tunes checkpoint replication.
	ShipperConfig = statestore.ShipperConfig
	// StorePeer is one replication target.
	StorePeer = statestore.Peer
	// ControllerCheckpoint is the decoded per-cycle controller state
	// carried in checkpoint payloads.
	ControllerCheckpoint = core.ControllerCheckpoint
)

// Monitoring (paper §VI).
type (
	// PowerMonitor aggregates fleet power observations into headroom,
	// stranded-power, and hot-device reports.
	PowerMonitor = monitor.Monitor
	// MonitorConfig tunes monitor alarms.
	MonitorConfig = monitor.Config
	// PowerObservation is one device sample fed to the monitor.
	PowerObservation = monitor.Observation
	// HotDeviceAlarm is an early warning for a persistently hot device.
	HotDeviceAlarm = monitor.Alarm
)

// Simulation.
type (
	// Simulation is a full simulated data center.
	Simulation = sim.Sim
	// SimConfig configures a simulation.
	SimConfig = sim.Config
	// SimServer is one simulated machine.
	SimServer = server.Server
	// ServerModel is a hardware generation's power model.
	ServerModel = server.Model
	// WorkloadProfile parameterizes a service's load process.
	WorkloadProfile = workload.Profile
	// Series is an append-only time series.
	Series = metrics.Series
	// Distribution is an empirical distribution (CDFs, percentiles).
	Distribution = metrics.Distribution
)

// Alert levels, from informational to calling for a human operator.
const (
	AlertInfo     = core.AlertInfo
	AlertWarning  = core.AlertWarning
	AlertCritical = core.AlertCritical
)

// KW constructs a Watts value from kilowatts.
func KW(kw float64) Watts { return power.KW(kw) }

// MW constructs a Watts value from megawatts.
func MW(mw float64) Watts { return power.MW(mw) }

// DefaultDatacenterSpec returns a small OCP data center with the paper's
// service mix; see topology.DefaultSpec.
func DefaultDatacenterSpec() DatacenterSpec { return topology.DefaultSpec() }

// FullDatacenterSpec returns the paper's full 30 MW data center.
func FullDatacenterSpec() DatacenterSpec { return topology.FullSpec() }

// NewSimLoop returns a deterministic event loop positioned at time zero.
func NewSimLoop() *SimLoop { return simclock.NewSimLoop() }

// NewWallLoop returns a running real-time loop.
func NewWallLoop() *WallLoop { return simclock.NewWallLoop() }

// NewRPCNetwork creates the in-process transport with the given one-way
// latency; all delivery is scheduled deterministically on the loop.
func NewRPCNetwork(loop Loop, latency time.Duration, seed int64) *RPCNetwork {
	return rpc.NewNetwork(loop, latency, seed)
}

// NewAgent creates a Dynamo agent for a server.
func NewAgent(id, service string, plat Platform) *Agent {
	return agent.New(id, service, "", plat)
}

// NewLeafController creates a leaf power controller over the given agents.
func NewLeafController(loop Loop, cfg LeafConfig, agents []AgentRef) *LeafController {
	return core.NewLeaf(loop, cfg, agents)
}

// NewUpperController creates an upper-level controller over child
// controllers.
func NewUpperController(loop Loop, cfg UpperConfig, children []ChildRef) *UpperController {
	return core.NewUpper(loop, cfg, children)
}

// CompileSuite describes the controller tree a simulation of topo runs:
// one leaf per RPP over its servers' agents (at AgentAddr), one upper per
// SB and MSB.
func CompileSuite(topo *Topology, bands BandConfig, cappableSwitches bool) *SuiteConfig {
	return sim.CompileSuite(topo, bands, cappableSwitches)
}

// BuildSuite assembles every controller of a suite configuration on one
// loop — the builder the daemons and the simulator share. dial connects
// each agent address; alerts and tel may be nil.
func BuildSuite(loop Loop, cfg *SuiteConfig, dial func(addr string) (RPCClient, error), alerts AlertFunc, tel *TelemetrySink) (*Hierarchy, error) {
	return suite.Build(loop, cfg, dial, alerts, tel)
}

// NewCohortScheduler creates a scheduler that batches same-instant
// controller cycles and fans their observe+decide phases across workers
// (1 keeps phases on the loop goroutine). Attach it to controllers via
// LeafConfig.Scheduler / UpperConfig.Scheduler.
func NewCohortScheduler(loop Loop, workers int, tel *TelemetrySink) *CohortScheduler {
	return core.NewCohortScheduler(loop, workers, tel)
}

// NewSimulation builds a full simulated data center.
func NewSimulation(cfg SimConfig) (*Simulation, error) { return sim.New(cfg) }

// AgentAddr returns the RPC address convention for a server's agent.
func AgentAddr(serverID string) string { return core.AgentAddr(serverID) }

// CtrlAddr returns the RPC address convention for a device's controller.
func CtrlAddr(deviceID string) string { return core.CtrlAddr(deviceID) }

// DefaultBandConfig returns the paper's three-band thresholds
// (cap at 99 % of the limit, target 95 %, uncap at 90 %).
func DefaultBandConfig() BandConfig { return core.DefaultBandConfig() }

// DefaultPriorityConfig returns the paper's service priority ordering.
func DefaultPriorityConfig() PriorityConfig { return core.DefaultPriorityConfig() }

// ServerGenerations returns the calibrated hardware generation models
// (paper Fig 1).
func ServerGenerations() map[string]ServerModel { return server.Generations() }

// WorkloadProfiles returns the calibrated per-service workload profiles
// (paper Fig 6).
func WorkloadProfiles() map[string]WorkloadProfile { return workload.Profiles() }

// NewPowerMonitor creates a fleet power monitor.
func NewPowerMonitor(cfg MonitorConfig) *PowerMonitor { return monitor.New(cfg) }

// NewFailover wires standby controllers to supervise the primary
// registered at CtrlAddr of the first one's device; on promotion each
// takes over CtrlAddr of its own.
func NewFailover(loop Loop, net *RPCNetwork, ctrls []Controller, cfg FailoverConfig) *Failover {
	return core.NewFailover(loop, net, ctrls, cfg)
}

// NewStateStore creates a replicated controller state store on the loop
// (tel may be nil).
func NewStateStore(loop Loop, name string, tel *TelemetrySink) *StateStore {
	return statestore.NewStore(loop, name, tel)
}

// NewCheckpointShipper replicates the store's checkpoint streams to the
// given peers with cumulative-ack log shipping.
func NewCheckpointShipper(loop Loop, store *StateStore, peers []StorePeer, cfg ShipperConfig) *CheckpointShipper {
	return statestore.NewShipper(loop, store, peers, cfg)
}
