// Package suite assembles controllers from a config.Suite: every leaf and
// upper controller of one description runs on a single event loop,
// controller-to-controller traffic stays on an in-process network, and
// agents (plus optional out-of-suite parents) are reached over the
// injected dialer — the paper's production packaging (§IV). Build is the
// one builder of controller trees, for the simulator from the config.Suite
// it compiles out of its topology. Deploy is what dynamo-suited runs: the
// built suite with its state store, replication, listeners and, on a
// backup, the failover probe, on the wall clock over TCP in the daemon and
// in virtual time over an in-process network in tests.
package suite

import (
	"fmt"
	"sync"
	"time"

	"dynamo/internal/config"
	"dynamo/internal/core"
	"dynamo/internal/power"
	"dynamo/internal/rpc"
	"dynamo/internal/simclock"
	"dynamo/internal/statestore"
	"dynamo/internal/telemetry"
	"dynamo/internal/topology"
)

// Dialer connects to a remote endpoint (an agent or an out-of-suite
// controller). The daemons use TCPTransport's; tests and the simulator
// dial an in-process network. Build dials children concurrently, so a
// Dialer must be safe for concurrent use (rpc.RedialTCP and
// rpc.Network.Dial both are).
type Dialer func(addr string) (rpc.Client, error)

// dialWorkers bounds Build's concurrent child dialing. Large suites have
// thousands of agents; dialing them serially dominated cold-start.
const dialWorkers = 16

// dialJob is one endpoint Build must connect to: an agent when agent is
// set, else an out-of-suite child.
type dialJob struct {
	addr  string
	agent string
}

// dialAll connects every job through a bounded worker pool. On any
// failure it waits for in-flight dials, closes every connection that did
// succeed (a failed suite assembly must not leak sockets), and returns
// the error of the first failed job in configuration order.
func dialAll(dial Dialer, jobs []dialJob) ([]rpc.Client, error) {
	clients := make([]rpc.Client, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	slots := make(chan struct{}, dialWorkers)
	for j := range jobs {
		wg.Add(1)
		slots <- struct{}{}
		go func() {
			defer func() { <-slots; wg.Done() }()
			clients[j], errs[j] = dial(jobs[j].addr)
		}()
	}
	wg.Wait()
	for j, err := range errs {
		if err != nil {
			for _, cl := range clients {
				if cl != nil {
					cl.Close()
				}
			}
			if jobs[j].agent != "" {
				return nil, fmt.Errorf("suite: dial agent %s (%s): %w", jobs[j].agent, jobs[j].addr, err)
			}
			return nil, fmt.Errorf("suite: dial child %s: %w", jobs[j].addr, err)
		}
	}
	return clients, nil
}

// Assembly is a built controller tree: all controllers consolidated on one
// loop (paper §III-A: "a hierarchy of Dynamo controllers that mirrors the
// topology of the data center's power hierarchy").
type Assembly struct {
	Leaves map[topology.NodeID]*core.Leaf
	Uppers map[topology.NodeID]*core.Upper

	// order is the construction order — every leaf, then every upper, each
	// in declaration order. It is the cohort scheduler's act order and the
	// start, stop and status order.
	order []topology.NodeID
}

// Options carries Build's inputs beyond the configuration, the dialer,
// the alert sink and the telemetry sink. The zero value assembles a suite
// with no checkpoints and no fault tolerance on a private network.
type Options struct {
	// Net is the in-process network every controller registers on at
	// core.CtrlAddr(device) and through which uppers dial their sibling
	// children. nil gives the suite a private zero-latency network (the
	// paper's shared-memory communication between consolidated
	// instances), which is what the daemons run; the simulator passes its
	// own, so sibling traffic pays its latency.
	Net *rpc.Network
	// Wrap, when set, decorates every client Build makes — dialed agents
	// and remote children, and sibling clients — keyed by the address
	// dialed. The simulator routes them through its fault injector.
	Wrap func(peer string, c rpc.Client) rpc.Client
	// Store, when set, attaches a checkpoint writer to every controller
	// so its recoverable state streams into the replicated state store
	// each decision cycle. The store must live on the same loop.
	Store *statestore.Store
	// Retry configures bounded RPC retries for every controller's
	// outbound calls. Zero value disables (single attempt).
	Retry core.RetryConfig
	// QuarantineThreshold trips a leaf's per-agent circuit breaker after
	// this many consecutive failed pulls. 0 disables.
	QuarantineThreshold int
	// CapLeaseTTL, when nonzero, attaches a lease to every cap a leaf
	// sends, which the leaf's pulls of capped agents renew; agents release
	// caps whose lease goes unrenewed.
	CapLeaseTTL time.Duration
	// Priorities applies to every leaf; the zero value means paper
	// defaults.
	Priorities core.PriorityConfig
	// Validators, when set, supplies each leaf a cross-check against its
	// breaker's own reading.
	Validators func(device string) func() (power.Watts, bool)
	// ControlWorkers sizes the cohort scheduler's observe+decide worker
	// pool shared by every controller (below 1 means 1: phases run on the
	// loop goroutine). Results are byte-identical at any value.
	ControlWorkers int
}

// Build constructs every controller in the suite configuration. alerts
// and tel may be nil. On error, every connection dialed so far is closed
// before returning — a failed suite assembly must not leak sockets. Build
// keeps no reference to cfg.
func Build(loop simclock.Loop, cfg *config.Suite, dial Dialer, alerts core.AlertFunc, tel *telemetry.Sink, o Options) (*Assembly, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	net := o.Net
	if net == nil {
		net = rpc.NewNetwork(loop, 0, 1)
	}
	wrap := o.Wrap
	if wrap == nil {
		wrap = func(_ string, c rpc.Client) rpc.Client { return c }
	}
	sched := core.NewCohortScheduler(loop, o.ControlWorkers, tel)
	a := &Assembly{
		Leaves: map[topology.NodeID]*core.Leaf{},
		Uppers: map[topology.NodeID]*core.Upper{},
		order:  make([]topology.NodeID, 0, len(cfg.Controllers)),
	}
	writer := func(device string) *statestore.Writer {
		if o.Store == nil {
			return nil
		}
		return o.Store.NewWriter(device, cfg.Name+"/"+device)
	}

	// Dial every remote endpoint — leaf agents and uppers' out-of-suite
	// children — through the bounded worker pool before assembling
	// anything. Job order mirrors assembly order exactly — all leaf agents
	// first, then uppers' remote children — so take() below hands each
	// configuration entry its own connection.
	var jobs []dialJob
	for _, c := range cfg.Controllers {
		if c.Level != "leaf" {
			continue
		}
		for _, ag := range c.Agents {
			jobs = append(jobs, dialJob{addr: ag.Addr, agent: ag.ID})
		}
	}
	for _, c := range cfg.Controllers {
		if c.Level != "upper" {
			continue
		}
		for _, ch := range c.Children {
			if ch.Device == "" {
				jobs = append(jobs, dialJob{addr: ch.Addr})
			}
		}
	}
	clients, err := dialAll(dial, jobs)
	if err != nil {
		return nil, err
	}
	next := 0
	take := func() rpc.Client {
		cl := wrap(jobs[next].addr, clients[next])
		next++
		return cl
	}

	// Pass 1: leaves (they have no intra-suite dependencies).
	for _, c := range cfg.Controllers {
		if c.Level != "leaf" {
			continue
		}
		refs := make([]core.AgentRef, 0, len(c.Agents))
		for _, ag := range c.Agents {
			refs = append(refs, core.AgentRef{
				ServerID: ag.ID, Service: ag.Service, Client: take(),
			})
		}
		lc := core.LeafConfig{
			DeviceID:      c.Device,
			Limit:         power.Watts(c.LimitWatts),
			Quota:         power.Watts(c.QuotaWatts),
			Bands:         bandConfig(c.Bands),
			Priorities:    o.Priorities,
			PollInterval:  c.Poll(),
			NonServerDraw: power.Watts(c.NonServerWatts),
			DryRun:        c.DryRun,
			UsePID:        c.UsePID,
			Alerts:        alerts,
			Telemetry:     tel,
			Scheduler:     sched,
			Checkpoint:    writer(c.Device),

			Retry:               o.Retry,
			QuarantineThreshold: o.QuarantineThreshold,
			CapLeaseTTL:         o.CapLeaseTTL,
		}
		if o.Validators != nil {
			lc.Validator = o.Validators(c.Device)
		}
		leaf := core.NewLeaf(loop, lc, refs)
		id := topology.NodeID(c.Device)
		a.Leaves[id] = leaf
		a.order = append(a.order, id)
		net.Register(core.CtrlAddr(c.Device), leaf.Handler())
	}

	// Pass 2: uppers, resolving sibling references through the in-process
	// network and remote children through the dialer.
	for _, c := range cfg.Controllers {
		if c.Level != "upper" {
			continue
		}
		children := make([]core.ChildRef, 0, len(c.Children))
		for _, ch := range c.Children {
			ref := core.ChildRef{ID: ch.Device, Quota: power.Watts(ch.QuotaWatts)}
			if ch.Device != "" {
				addr := core.CtrlAddr(ch.Device)
				ref.Client = wrap(addr, net.Dial(addr))
			} else {
				ref.ID = ch.Addr
				ref.Client = take()
			}
			children = append(children, ref)
		}
		up := core.NewUpper(loop, core.UpperConfig{
			DeviceID:     c.Device,
			Limit:        power.Watts(c.LimitWatts),
			Quota:        power.Watts(c.QuotaWatts),
			Bands:        bandConfig(c.Bands),
			PollInterval: c.Poll(),
			DryRun:       c.DryRun,
			Alerts:       alerts,
			Telemetry:    tel,
			Scheduler:    sched,
			Checkpoint:   writer(c.Device),
			Retry:        o.Retry,
		}, children)
		id := topology.NodeID(c.Device)
		a.Uppers[id] = up
		a.order = append(a.order, id)
		net.Register(core.CtrlAddr(c.Device), up.Handler())
	}
	return a, nil
}

// bandConfig converts optional JSON bands; nil means paper defaults.
func bandConfig(b *config.Bands) core.BandConfig {
	if b == nil {
		return core.BandConfig{}
	}
	return core.BandConfig{
		CapThresholdFrac:   b.CapThresholdFrac,
		CapTargetFrac:      b.CapTargetFrac,
		UncapThresholdFrac: b.UncapThresholdFrac,
	}
}

// Leaf returns the leaf controller for a device, or nil.
func (a *Assembly) Leaf(id topology.NodeID) *core.Leaf { return a.Leaves[id] }

// Upper returns the upper controller for a device, or nil.
func (a *Assembly) Upper(id topology.NodeID) *core.Upper { return a.Uppers[id] }

// Controller returns the named controller as the common interface.
func (a *Assembly) Controller(device string) core.Controller {
	if l, ok := a.Leaves[topology.NodeID(device)]; ok {
		return l
	}
	if u, ok := a.Uppers[topology.NodeID(device)]; ok {
		return u
	}
	return nil
}

// Devices lists every controller's device in the assembly's order: the
// leaves, then the uppers, each in declaration order. The slice is the
// assembly's own; do not modify it.
func (a *Assembly) Devices() []topology.NodeID { return a.order }

// Controllers lists every controller in the assembly's order: the set a
// backup suite's core.Failover promotes.
func (a *Assembly) Controllers() []core.Controller {
	out := make([]core.Controller, 0, len(a.order))
	for _, d := range a.order {
		out = append(out, a.Controller(string(d)))
	}
	return out
}

// StartAll starts every controller in the assembly's order.
func (a *Assembly) StartAll() {
	for _, d := range a.order {
		a.Controller(string(d)).Start()
	}
}

// StopAll stops every controller.
func (a *Assembly) StopAll() {
	for _, d := range a.order {
		a.Controller(string(d)).Stop()
	}
}

// NumControllers returns the instance count.
func (a *Assembly) NumControllers() int { return len(a.order) }

// Status snapshots every controller in the assembly's order with its last
// lastN decision records. Loop-confined, like the controller methods.
func (a *Assembly) Status(lastN int) []core.ControllerStatus {
	out := make([]core.ControllerStatus, 0, len(a.order))
	for _, d := range a.order {
		out = append(out, a.Controller(string(d)).Status(lastN))
	}
	return out
}
