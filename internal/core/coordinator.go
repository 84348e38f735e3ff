package core

import (
	"fmt"
	"time"

	"dynamo/internal/power"
	"dynamo/internal/rpc"
	"dynamo/internal/simclock"
	"dynamo/internal/statestore"
	"dynamo/internal/telemetry"
	"dynamo/internal/topology"
)

// AgentAddr returns the RPC address convention for a server's agent.
func AgentAddr(serverID string) string { return "agent/" + serverID }

// CtrlAddr returns the RPC address convention for a device's controller.
func CtrlAddr(deviceID string) string { return "ctrl/" + deviceID }

// HierarchyConfig configures BuildHierarchy.
type HierarchyConfig struct {
	// LeafKind selects the lowest protected level. Facebook deploys leaf
	// controllers at the RPP/PDU level and skips rack monitoring because
	// rack power is over-provisioned (paper §IV footnote 2); rack-level
	// leaves are supported for other deployments.
	LeafKind topology.Kind
	// Bands applies to every controller; zero value means paper defaults.
	Bands BandConfig
	// Priorities applies to every leaf; zero value means paper defaults.
	Priorities PriorityConfig
	// NonServerDrawPerRack accounts for top-of-rack switches on each
	// rack's breaker (monitored, not capped).
	NonServerDrawPerRack power.Watts
	// IncludeSwitches adds top-of-rack switch agents to each leaf's
	// control set (the paper's §III-E extension for network devices that
	// support capping). Agents must be registered at AgentAddr(switchID);
	// they join the "network" priority group, which is capped last.
	IncludeSwitches bool
	// DryRun propagates to every controller.
	DryRun bool
	// Alerts receives alerts from every controller.
	Alerts AlertFunc
	// Validators, when set, supplies a per-device breaker-reading
	// cross-check for leaf controllers.
	Validators func(id topology.NodeID) func() (power.Watts, bool)
	// Telemetry propagates to every controller (nil disables).
	Telemetry *telemetry.Sink
	// ControlWorkers sizes the cohort scheduler's worker pool for the
	// observe+decide phases of controllers due at the same virtual instant
	// (mirroring sim.Config.TickWorkers for the physics step). 0 or 1
	// batches cohorts but runs their phases on the loop goroutine; results
	// are byte-identical at any value.
	ControlWorkers int
	// StateStore, when set, attaches a checkpoint writer to every
	// controller so its recoverable state streams into the replicated
	// state store each act phase. Checkpointing rides the serial act
	// phase, so determinism is unaffected.
	StateStore *statestore.Store
	// Dial overrides how controllers dial their peers and agents (the
	// fault-injection layer wraps the network here). nil dials the
	// in-proc network directly.
	Dial func(addr string) rpc.Client
	// Retry configures bounded RPC retries for every controller's
	// outbound calls. The zero value means one attempt per call.
	Retry RetryConfig
	// QuarantineThreshold trips a leaf's per-agent circuit breaker after
	// this many consecutive failed pulls; estimation covers the agent
	// until a half-open probe succeeds. 0 disables.
	QuarantineThreshold int
	// CapLeaseTTL, when nonzero, attaches a lease to every cap a leaf
	// sends: the leaf renews leases on capped agents each cycle, and an
	// agent whose lease goes unrenewed releases its cap (fail-safe
	// against controller death).
	CapLeaseTTL time.Duration
}

// Hierarchy is a built controller tree mirroring the power topology
// (paper §III-A: "a hierarchy of Dynamo controllers that mirrors the
// topology of the data center's power hierarchy").
type Hierarchy struct {
	Leaves map[topology.NodeID]*Leaf
	Uppers map[topology.NodeID]*Upper

	// Sched is the cohort scheduler shared by every controller in the
	// hierarchy.
	Sched *CohortScheduler

	// leafOrder/upperOrder give deterministic start order (top-down).
	leafOrder  []topology.NodeID
	upperOrder []topology.NodeID
}

// BuildHierarchy instantiates one controller per protected power device
// and registers each at its conventional address on the network. All
// controller instances for the data center are consolidated onto one event
// loop, matching the paper's consolidation of neighboring controllers into
// one binary with a thread per instance (§IV).
//
// Agents must already be registered at AgentAddr(serverID); the caller
// (normally internal/sim or the daemons) owns agent lifecycle.
func BuildHierarchy(loop simclock.Loop, net *rpc.Network, topo *topology.Topology, cfg HierarchyConfig) (*Hierarchy, error) {
	if cfg.LeafKind == 0 {
		cfg.LeafKind = topology.KindRPP
	}
	if _, ok := cfg.LeafKind.DeviceClass(); !ok {
		return nil, fmt.Errorf("core: leaf kind %v is not a power device", cfg.LeafKind)
	}

	dial := cfg.Dial
	if dial == nil {
		dial = net.Dial
	}

	h := &Hierarchy{
		Leaves: map[topology.NodeID]*Leaf{},
		Uppers: map[topology.NodeID]*Upper{},
		Sched:  NewCohortScheduler(loop, cfg.ControlWorkers, cfg.Telemetry),
	}

	// Device kinds from the leaf level up to the MSB.
	kindsUp := deviceKindsUpFrom(cfg.LeafKind)

	// Leaf controllers.
	for _, node := range topo.OfKind(cfg.LeafKind) {
		var agents []AgentRef
		var racks int
		for _, srv := range node.Servers() {
			agents = append(agents, AgentRef{
				ServerID:   string(srv.ID),
				Service:    srv.Service,
				Generation: srv.Generation,
				Client:     dial(AgentAddr(string(srv.ID))),
			})
		}
		node.Walk(func(n *topology.Node) {
			if n.Kind == topology.KindRack {
				racks++
			}
			if n.Kind == topology.KindSwitch && cfg.IncludeSwitches {
				agents = append(agents, AgentRef{
					ServerID:   string(n.ID),
					Service:    "network",
					Generation: "torswitch",
					Client:     dial(AgentAddr(string(n.ID))),
				})
			}
		})
		if cfg.LeafKind == topology.KindRack {
			racks = 1
		}
		nonServer := cfg.NonServerDrawPerRack * power.Watts(racks)
		if cfg.IncludeSwitches {
			// Switches are agents now; their draw is measured, not
			// budgeted as a constant.
			nonServer = 0
		}
		lcfg := LeafConfig{
			DeviceID:      string(node.ID),
			Limit:         node.Rating,
			Quota:         node.Quota,
			Bands:         cfg.Bands,
			Priorities:    cfg.Priorities,
			NonServerDraw: nonServer,
			DryRun:        cfg.DryRun,
			Alerts:        cfg.Alerts,
			Telemetry:     cfg.Telemetry,
			Scheduler:     h.Sched,

			Retry:               cfg.Retry,
			QuarantineThreshold: cfg.QuarantineThreshold,
			CapLeaseTTL:         cfg.CapLeaseTTL,
		}
		if cfg.StateStore != nil {
			lcfg.Checkpoint = cfg.StateStore.NewWriter(string(node.ID), string(node.ID))
		}
		if cfg.Validators != nil {
			lcfg.Validator = cfg.Validators(node.ID)
		}
		leaf := NewLeaf(loop, lcfg, agents)
		h.Leaves[node.ID] = leaf
		h.leafOrder = append(h.leafOrder, node.ID)
		net.Register(CtrlAddr(string(node.ID)), leaf.Handler())
	}

	// Upper controllers, bottom-up so children exist conceptually; the
	// clients are lazy so order is not load-bearing.
	for i := 1; i < len(kindsUp); i++ {
		kind := kindsUp[i]
		childKind := kindsUp[i-1]
		for _, node := range topo.OfKind(kind) {
			var children []ChildRef
			for _, c := range node.Children {
				if c.Kind != childKind {
					continue
				}
				children = append(children, ChildRef{
					ID:     string(c.ID),
					Client: dial(CtrlAddr(string(c.ID))),
					Quota:  c.Quota,
				})
			}
			ucfg := UpperConfig{
				DeviceID:  string(node.ID),
				Limit:     node.Rating,
				Quota:     node.Quota,
				Bands:     cfg.Bands,
				DryRun:    cfg.DryRun,
				Alerts:    cfg.Alerts,
				Telemetry: cfg.Telemetry,
				Scheduler: h.Sched,
				Retry:     cfg.Retry,
			}
			if cfg.StateStore != nil {
				ucfg.Checkpoint = cfg.StateStore.NewWriter(string(node.ID), string(node.ID))
			}
			up := NewUpper(loop, ucfg, children)
			h.Uppers[node.ID] = up
			h.upperOrder = append(h.upperOrder, node.ID)
			net.Register(CtrlAddr(string(node.ID)), up.Handler())
		}
	}
	return h, nil
}

// deviceKindsUpFrom lists device kinds from leaf kind up to MSB.
func deviceKindsUpFrom(leaf topology.Kind) []topology.Kind {
	all := []topology.Kind{topology.KindRack, topology.KindRPP, topology.KindSB, topology.KindMSB}
	for i, k := range all {
		if k == leaf {
			return all[i:]
		}
	}
	return all[1:]
}

// StartAll starts every controller.
func (h *Hierarchy) StartAll() {
	for _, id := range h.leafOrder {
		h.Leaves[id].Start()
	}
	for _, id := range h.upperOrder {
		h.Uppers[id].Start()
	}
}

// StopAll stops every controller.
func (h *Hierarchy) StopAll() {
	for _, id := range h.leafOrder {
		h.Leaves[id].Stop()
	}
	for _, id := range h.upperOrder {
		h.Uppers[id].Stop()
	}
}

// NumControllers returns the controller instance count.
func (h *Hierarchy) NumControllers() int { return len(h.Leaves) + len(h.Uppers) }

// Leaf returns the leaf controller for a device ID, or nil.
func (h *Hierarchy) Leaf(id topology.NodeID) *Leaf { return h.Leaves[id] }

// Upper returns the upper controller for a device ID, or nil.
func (h *Hierarchy) Upper(id topology.NodeID) *Upper { return h.Uppers[id] }
