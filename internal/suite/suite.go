// Package suite assembles a consolidated suite controller from a
// config.Suite: every leaf and upper controller for one data center suite
// runs in a single process on one event loop, controller-to-controller
// traffic stays in-process, and agents (plus optional out-of-suite
// parents) are reached over the injected dialer — exactly the paper's
// production packaging (§IV).
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
)

// Dialer connects to a remote endpoint (an agent or an out-of-suite
// controller). Production uses rpc.DialTCP; tests inject an in-process
// network's Dial. Build dials children concurrently, so a Dialer must be
// safe for concurrent use (rpc.DialTCP and rpc.Network.Dial both are).
type Dialer func(addr string) (rpc.Client, error)

// dialWorkers bounds Build's concurrent child dialing. Large suites have
// thousands of agents; dialing them serially dominated cold-start.
const dialWorkers = 16

// dialJob is one endpoint Build must connect to, with the error context
// of the controller configuration that references it.
type dialJob struct {
	addr string
	desc string
}

// dialAll connects every job through a bounded worker pool. On any
// failure it waits for in-flight dials, closes every connection that did
// succeed (a failed suite assembly must not leak sockets), and returns
// the error of the first failed job in configuration order.
func dialAll(dial Dialer, jobs []dialJob) ([]rpc.Client, error) {
	clients := make([]rpc.Client, len(jobs))
	errs := make([]error, len(jobs))
	w := dialWorkers
	if w > len(jobs) {
		w = len(jobs)
	}
	if w > 1 {
		idx := make(chan int)
		var wg sync.WaitGroup
		for i := 0; i < w; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range idx {
					clients[j], errs[j] = dial(jobs[j].addr)
				}
			}()
		}
		for j := range jobs {
			idx <- j
		}
		close(idx)
		wg.Wait()
	} else {
		for j := range jobs {
			clients[j], errs[j] = dial(jobs[j].addr)
		}
	}
	for j, err := range errs {
		if err != nil {
			for _, cl := range clients {
				if cl != nil {
					cl.Close()
				}
			}
			return nil, fmt.Errorf("suite: dial %s: %w", jobs[j].desc, err)
		}
	}
	return clients, nil
}

// Assembly is a built suite: all controllers consolidated on one loop.
type Assembly struct {
	Name   string
	Leaves map[string]*core.Leaf
	Uppers map[string]*core.Upper
	// Intra is the in-process network carrying sibling controller
	// traffic (paper: shared-memory communication between consolidated
	// instances).
	Intra *rpc.Network
	// Sched is the 1-worker cohort scheduler shared by the suite's
	// controllers: the wall-clock path keeps inline-equivalent phase
	// execution while gaining the per-phase telemetry histograms.
	Sched *core.CohortScheduler
	// Store is the replicated controller state store every controller
	// checkpoints into (nil when Options.Store was not set).
	Store *statestore.Store

	order []string
}

// Options tunes Build beyond the required wiring.
type Options struct {
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
	// sends; agents release caps whose lease goes unrenewed.
	CapLeaseTTL time.Duration
}

// Build constructs every controller in the suite configuration. tel may be
// nil to disable telemetry. On error, every connection dialed so far is
// closed before returning — a failed suite assembly must not leak sockets.
func Build(loop simclock.Loop, cfg *config.Suite, dial Dialer, alerts core.AlertFunc, tel *telemetry.Sink) (*Assembly, error) {
	return BuildWith(loop, cfg, dial, alerts, tel, Options{})
}

// BuildWith is Build with assembly options.
func BuildWith(loop simclock.Loop, cfg *config.Suite, dial Dialer, alerts core.AlertFunc, tel *telemetry.Sink, opts Options) (*Assembly, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	a := &Assembly{
		Name:   cfg.Name,
		Leaves: map[string]*core.Leaf{},
		Uppers: map[string]*core.Upper{},
		Intra:  rpc.NewNetwork(loop, 0, 1),
		Sched:  core.NewCohortScheduler(loop, 1, tel),
		Store:  opts.Store,
	}

	// Dial every remote endpoint — leaf agents and uppers' out-of-suite
	// children — through the bounded worker pool before assembling
	// anything. Jobs are collected in configuration order so error
	// reporting and client assignment stay deterministic.
	// Job order mirrors assembly order exactly — all leaf agents first,
	// then uppers' remote children — so take() below hands each
	// configuration entry its own connection.
	var jobs []dialJob
	for _, c := range cfg.Controllers {
		if c.Level != "leaf" {
			continue
		}
		for _, ag := range c.Agents {
			jobs = append(jobs, dialJob{
				addr: ag.Addr,
				desc: fmt.Sprintf("agent %s (%s)", ag.ID, ag.Addr),
			})
		}
	}
	for _, c := range cfg.Controllers {
		if c.Level != "upper" {
			continue
		}
		for _, ch := range c.Children {
			if ch.Device == "" {
				jobs = append(jobs, dialJob{
					addr: ch.Addr,
					desc: fmt.Sprintf("child %s", ch.Addr),
				})
			}
		}
	}
	clients, err := dialAll(dial, jobs)
	if err != nil {
		return nil, err
	}
	nextClient := 0
	take := func() rpc.Client {
		cl := clients[nextClient]
		nextClient++
		return cl
	}

	// Pass 1: leaves (they have no intra-suite dependencies).
	for _, c := range cfg.Controllers {
		if c.Level != "leaf" {
			continue
		}
		var refs []core.AgentRef
		for _, ag := range c.Agents {
			refs = append(refs, core.AgentRef{
				ServerID: ag.ID, Service: ag.Service, Generation: ag.Generation, Client: take(),
			})
		}
		lc := core.LeafConfig{
			DeviceID:     c.Device,
			Limit:        power.Watts(c.LimitWatts),
			Quota:        power.Watts(c.QuotaWatts),
			PollInterval: c.Poll(),
			DryRun:       c.DryRun,
			UsePID:       c.UsePID,
			Alerts:       alerts,
			Telemetry:    tel,
			Scheduler:    a.Sched,

			Retry:               opts.Retry,
			QuarantineThreshold: opts.QuarantineThreshold,
			CapLeaseTTL:         opts.CapLeaseTTL,
		}
		if c.Bands != nil {
			lc.Bands = bandConfig(c.Bands)
		}
		if a.Store != nil {
			lc.Checkpoint = a.Store.NewWriter(c.Device, cfg.Name+"/"+c.Device)
		}
		leaf := core.NewLeaf(loop, lc, refs)
		a.Leaves[c.Device] = leaf
		a.Intra.Register(core.CtrlAddr(c.Device), leaf.Handler())
		a.order = append(a.order, c.Device)
	}

	// Pass 2: uppers, resolving sibling references through the intra
	// network and remote children through the dialer.
	for _, c := range cfg.Controllers {
		if c.Level != "upper" {
			continue
		}
		var children []core.ChildRef
		for _, ch := range c.Children {
			var cl rpc.Client
			var id string
			if ch.Device != "" {
				id = ch.Device
				cl = a.Intra.Dial(core.CtrlAddr(ch.Device))
			} else {
				id = ch.Addr
				cl = take()
			}
			children = append(children, core.ChildRef{
				ID: id, Client: cl, Quota: power.Watts(ch.QuotaWatts),
			})
		}
		uc := core.UpperConfig{
			DeviceID:     c.Device,
			Limit:        power.Watts(c.LimitWatts),
			Quota:        power.Watts(c.QuotaWatts),
			PollInterval: c.Poll(),
			DryRun:       c.DryRun,
			Alerts:       alerts,
			Telemetry:    tel,
			Scheduler:    a.Sched,
			Retry:        opts.Retry,
		}
		if c.Bands != nil {
			uc.Bands = bandConfig(c.Bands)
		}
		if a.Store != nil {
			uc.Checkpoint = a.Store.NewWriter(c.Device, cfg.Name+"/"+c.Device)
		}
		up := core.NewUpper(loop, uc, children)
		a.Uppers[c.Device] = up
		a.Intra.Register(core.CtrlAddr(c.Device), up.Handler())
		a.order = append(a.order, c.Device)
	}
	return a, nil
}

func bandConfig(b *config.Bands) core.BandConfig {
	return core.BandConfig{
		CapThresholdFrac:   b.CapThresholdFrac,
		CapTargetFrac:      b.CapTargetFrac,
		UncapThresholdFrac: b.UncapThresholdFrac,
	}
}

// Controller returns the named controller as the common interface.
func (a *Assembly) Controller(device string) core.Controller {
	if l, ok := a.Leaves[device]; ok {
		return l
	}
	if u, ok := a.Uppers[device]; ok {
		return u
	}
	return nil
}

// StartAll starts every controller in declaration order.
func (a *Assembly) StartAll() {
	for _, d := range a.order {
		a.Controller(d).Start()
	}
}

// StopAll stops every controller.
func (a *Assembly) StopAll() {
	for _, d := range a.order {
		a.Controller(d).Stop()
	}
}

// NumControllers returns the instance count.
func (a *Assembly) NumControllers() int { return len(a.order) }

// Status snapshots every controller in declaration order with its last
// lastN decision records. Loop-confined, like the controller methods.
func (a *Assembly) Status(lastN int) []core.ControllerStatus {
	out := make([]core.ControllerStatus, 0, len(a.order))
	for _, d := range a.order {
		if l, ok := a.Leaves[d]; ok {
			out = append(out, l.Status(lastN))
		} else if u, ok := a.Uppers[d]; ok {
			out = append(out, u.Status(lastN))
		}
	}
	return out
}
