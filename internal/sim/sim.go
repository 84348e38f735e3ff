// Package sim assembles the full simulated data center: an OCP power
// topology populated with simulated servers running the paper's service
// workloads, a Dynamo agent per server, thermal breaker models on every
// power device, and (optionally) the Dynamo controller hierarchy. All of
// it runs on one deterministic event loop, so a 24-hour production day
// (Fig 14) or a multi-day power-variation study (Fig 5) replays in
// milliseconds and is exactly reproducible from a seed.
package sim

import (
	"math"
	"runtime"
	"sync"
	"time"

	"dynamo/internal/agent"
	"dynamo/internal/config"
	"dynamo/internal/core"
	"dynamo/internal/faults"
	"dynamo/internal/metrics"
	"dynamo/internal/monitor"
	"dynamo/internal/noise"
	"dynamo/internal/platform"
	"dynamo/internal/power"
	"dynamo/internal/rpc"
	"dynamo/internal/server"
	"dynamo/internal/simclock"
	"dynamo/internal/statestore"
	"dynamo/internal/suite"
	"dynamo/internal/telemetry"
	"dynamo/internal/topology"
	"dynamo/internal/workload"
)

// Config describes a simulation.
type Config struct {
	// Spec is the data center to build.
	Spec topology.Spec
	// Seed drives all randomness (workloads, sensor noise, hardware
	// spread, fault and retry-jitter draws).
	Seed int64
	// TickInterval is the physics step (server load/RAPL/power update and
	// breaker observation). Default 1 s; Fig 9 style experiments use less.
	TickInterval time.Duration
	// EnableDynamo builds and starts the controller hierarchy; when false
	// the fleet runs open-loop (the "without Dynamo" baseline).
	EnableDynamo bool
	// Hierarchy customizes the controller tree when enabled. A zero
	// Hierarchy.ControlWorkers means GOMAXPROCS, as with TickWorkers.
	Hierarchy core.HierarchyConfig
	// SensorlessGenerations lists hardware generations without power
	// sensors; their agents use calibrated estimation models (§III-B).
	SensorlessGenerations []string
	// LoadScale multiplies offered load per service (hadoop/search use
	// >1 so saturated waves leave Turbo-absorbable backlog).
	LoadScale map[string]float64
	// Turbo enables Turbo Boost per service from the start.
	Turbo map[string]bool
	// GovMaxFreq administratively locks frequency per service (the
	// legacy search cluster lock).
	GovMaxFreq map[string]float64
	// DisableTripOutage keeps the servers beneath a tripped breaker
	// running. By default (false) a trip takes the breaker's subtree
	// offline, crashing its servers.
	DisableTripOutage bool
	// ValidatorInterval is how often breaker "meter" readings refresh for
	// leaf-controller cross-checks. Zero disables validators (the meter
	// readings are minutes-coarse in production, paper §III-C1).
	ValidatorInterval time.Duration
	// CappableSwitches turns top-of-rack switches into controllable
	// endpoints with their own agents (the paper's §III-E extension for
	// network hardware that supports capping). When false (the deployed
	// configuration), switches are monitored as a constant draw only.
	CappableSwitches bool
	// Telemetry, when set, instruments the controller hierarchy and counts
	// breaker trips. nil (the default) keeps the simulation telemetry-free
	// and byte-identical to previous releases.
	Telemetry *telemetry.Sink
	// TickWorkers bounds the worker pool that shards the per-server
	// physics step. 0 uses GOMAXPROCS; 1 forces the serial path. Results
	// are byte-identical at any setting — servers are independent once
	// the per-service shared workload state is pre-advanced each tick.
	TickWorkers int
	// Checkpoint attaches a replicated-state-store writer to every
	// controller, checkpointing each decision cycle into Sim.Store.
	// Checkpoint writes ride the serial act phase, so enabling this keeps
	// runs byte-identical to Checkpoint=false at any worker count.
	Checkpoint bool
	// FaultRules seeds the deterministic fault injector with a chaos
	// schedule applied to every controller-side RPC client (agent pulls,
	// cap sends, inter-controller contract calls). Empty means no faults;
	// the injector is still built so tests can Add rules mid-run. Faults
	// draw from a stateless hash of (Seed, peer, method, call index), so
	// the same seed and schedule replays byte-identically at any worker
	// count.
	FaultRules []faults.Rule
	// ControlRetry configures bounded RPC retries for every controller.
	// The zero value means one attempt per call: retries are off in the
	// in-process simulation unless a scenario turns them on (dynamo-suited
	// defaults them on).
	ControlRetry core.RetryConfig
	// QuarantineThreshold trips a leaf's per-agent circuit breaker after
	// this many consecutive failed pulls. 0 disables.
	QuarantineThreshold int
	// CapLeaseTTL bounds how long a cap may outlive its controller:
	// leaves attach this lease to every SetCap and renew it with every
	// pull of a capped agent; agents release unrenewed caps and raise a
	// warning alert. 0 sends caps without a lease: off in the in-process
	// simulation unless a scenario turns it on (dynamo-suited and
	// dynamo-agentd default it on).
	CapLeaseTTL time.Duration
}

const (
	// netLatency is the one-way in-proc RPC latency.
	netLatency = 2 * time.Millisecond
	// switchDraw is the constant per-rack top-of-rack switch draw.
	switchDraw power.Watts = 150
	// hardwareSpread is the relative sigma of per-server power-model
	// jitter (manufacturing/efficiency variation).
	hardwareSpread = 0.03
	// metricsScenario is the scenario label on the simulator's metrics.
	metricsScenario = "default"
)

// recharge is one rack's decaying DCUPS recharge draw.
type recharge struct {
	start   time.Duration
	initial power.Watts
	tau     time.Duration
}

// TripEvent records a breaker trip.
type TripEvent struct {
	Device topology.NodeID
	Class  power.DeviceClass
	At     time.Duration
	Draw   power.Watts
}

// Sim is a running simulated data center.
type Sim struct {
	Cfg  Config
	Loop *simclock.SimLoop
	Net  *rpc.Network
	Topo *topology.Topology

	Servers map[string]*server.Server
	Agents  map[string]*agent.Agent
	Shared  map[string]*workload.Shared
	Gens    map[string]*workload.Generator

	// Hierarchy is the controller tree (nil unless Cfg.EnableDynamo).
	Hierarchy *suite.Assembly
	Breakers  map[topology.NodeID]*power.Breaker
	// Store is the controller state store (nil unless Cfg.Checkpoint).
	Store *statestore.Store
	// Faults is the deterministic fault injector wrapping every
	// controller-side RPC client. Always non-nil when Dynamo is enabled;
	// with no rules it passes calls through untouched.
	Faults *faults.Injector

	serverOrder []string
	deviceOrder []topology.NodeID
	// sharedOrder fixes the per-service workload advance order (creation
	// order, which follows topology server order) so the pre-tick Advance
	// pass is deterministic.
	sharedOrder []string

	// Aggregation layer (see aggregate.go): post-order device index,
	// resolved server list in serverOrder, and the per-tick snapshot all
	// power consumers read.
	agg           []aggDev
	aggIdx        map[topology.NodeID]int
	snap          snapshot
	tickList      []*server.Server
	constSwitches int
	workers       int
	// The sharded tick's fan-out: shard i ticks chunk i of tickList at
	// tickNow. Each shard's function is bound once, so a tick allocates
	// nothing.
	tickShards []func()
	tickWG     sync.WaitGroup
	tickChunk  int
	tickNow    time.Duration
	// breakerList holds the breakers in deviceOrder and devSnapIdx each
	// device's snapshot index, so the tick reads neither map.
	breakerList []*power.Breaker
	devSnapIdx  []int

	recorded    map[topology.NodeID]*metrics.Series
	recordEvery time.Duration
	lastRecord  time.Duration

	recordedServers map[string]*metrics.Series

	meter     map[topology.NodeID]power.Watts
	lastMeter time.Duration

	// recharges tracks per-rack DCUPS battery recharge draw after an
	// outage restore (paper Fig 2: one DCUPS per six racks provides 90 s
	// of backup; refilling it adds load during recovery — part of why
	// recovery surges are dangerous).
	recharges map[topology.NodeID]recharge

	Alerts []core.Alert
	Trips  []TripEvent

	ticker *simclock.Ticker

	tel         *telemetry.Sink // nil when disabled
	tripCount   *telemetry.Counter
	cappedGauge *telemetry.Gauge
}

// New builds a simulation. Servers are assigned per-service shared
// workload state and per-server generators, agents are registered on the
// in-proc network, and breakers are armed on every device.
func New(cfg Config) (*Sim, error) {
	if cfg.TickInterval <= 0 {
		cfg.TickInterval = time.Second
	}
	topo, err := cfg.Spec.Build()
	if err != nil {
		return nil, err
	}
	loop := simclock.NewSimLoop()
	s := &Sim{
		Cfg:             cfg,
		Loop:            loop,
		Net:             rpc.NewNetwork(loop, netLatency, 0),
		Topo:            topo,
		Servers:         map[string]*server.Server{},
		Agents:          map[string]*agent.Agent{},
		Shared:          map[string]*workload.Shared{},
		Gens:            map[string]*workload.Generator{},
		Breakers:        map[topology.NodeID]*power.Breaker{},
		recorded:        map[topology.NodeID]*metrics.Series{},
		recordedServers: map[string]*metrics.Series{},
		meter:           map[topology.NodeID]power.Watts{},
		recharges:       map[topology.NodeID]recharge{},
	}
	if cfg.Telemetry.Enabled() {
		s.tel = cfg.Telemetry
		s.tripCount = cfg.Telemetry.Counter("dynamo_sim_breaker_trips_total", "scenario", metricsScenario)
		s.cappedGauge = cfg.Telemetry.Gauge("dynamo_sim_capped_servers", "scenario", metricsScenario)
	}

	sensorless := map[string]bool{}
	for _, g := range cfg.SensorlessGenerations {
		sensorless[g] = true
	}
	estModels := map[string]*platform.EstimationModel{}

	seed := cfg.Seed
	next := func() int64 { seed++; return seed }

	hwRng := noise.New(cfg.Seed ^ 0x4a11)

	// The fleet lives in two slices in tick order (servers, then cappable
	// switches), so each sharded pass walks memory in order; the maps and
	// the tick list point into them.
	srvNodes := topo.Servers()
	var swNodes []*topology.Node
	if cfg.CappableSwitches {
		swNodes = topo.OfKind(topology.KindSwitch)
	}
	fleet := make([]server.Server, len(srvNodes)+len(swNodes))
	gens := make([]workload.Generator, len(fleet))

	for i, srvNode := range srvNodes {
		svc := srvNode.Service
		sh, ok := s.Shared[svc]
		if !ok {
			prof, err := workload.Lookup(svc)
			if err != nil {
				return nil, err
			}
			sh = workload.NewShared(prof, next())
			s.Shared[svc] = sh
			s.sharedOrder = append(s.sharedOrder, svc)
		}
		gen := &gens[i]
		gen.Init(sh, next())
		s.Gens[string(srvNode.ID)] = gen

		model, err := server.LookupModel(srvNode.Generation)
		if err != nil {
			return nil, err
		}
		// No two machines draw identically: jitter idle and peak a few
		// percent per server (deterministic per seed).
		model.Idle *= power.Watts(1 + hardwareSpread*hwRng.NormFloat64()*0.6)
		model.Peak *= power.Watts(1 + hardwareSpread*hwRng.NormFloat64())
		if model.Peak < model.Idle+50 {
			model.Peak = model.Idle + 50
		}
		scale := 1.0
		if v, ok := cfg.LoadScale[svc]; ok {
			scale = v
		}
		sv := &fleet[i]
		sv.Init(server.Config{
			ID: string(srvNode.ID), Service: svc,
			Model:      model,
			Source:     gen,
			LoadScale:  scale,
			Turbo:      cfg.Turbo[svc],
			GovMaxFreq: cfg.GovMaxFreq[svc],
		})
		sv.Tick(0)
		s.Servers[string(srvNode.ID)] = sv
		s.serverOrder = append(s.serverOrder, string(srvNode.ID))

		var plat platform.Platform
		if sensorless[srvNode.Generation] {
			em, ok := estModels[srvNode.Generation]
			if !ok {
				em = platform.Calibrate(model, 21, 1.0, next())
				estModels[srvNode.Generation] = em
			}
			plat, err = platform.NewEstimated(sv, em, platform.Options{Seed: next()})
			if err != nil {
				return nil, err
			}
		} else if srvNode.Generation == "westmere2011" {
			plat = platform.NewIPMI(sv, platform.Options{Seed: next()})
		} else {
			plat = platform.NewMSR(sv, platform.Options{Seed: next()})
		}
		ag := agent.New(string(srvNode.ID), svc, srvNode.Generation, plat)
		s.Agents[string(srvNode.ID)] = ag
		s.Net.Register(core.AgentAddr(string(srvNode.ID)), ag.Handler())
	}

	if cfg.CappableSwitches {
		prof, err := workload.Lookup("network")
		if err != nil {
			return nil, err
		}
		shared := workload.NewShared(prof, next())
		s.Shared["network"] = shared
		s.sharedOrder = append(s.sharedOrder, "network")
		model := server.MustModel("torswitch")
		for j, sw := range swNodes {
			gen := &gens[len(srvNodes)+j]
			gen.Init(shared, next())
			s.Gens[string(sw.ID)] = gen
			sv := &fleet[len(srvNodes)+j]
			sv.Init(server.Config{
				ID: string(sw.ID), Service: "network",
				Model:  model,
				Source: gen,
			})
			sv.Tick(0)
			s.Servers[string(sw.ID)] = sv
			s.serverOrder = append(s.serverOrder, string(sw.ID))
			plat := platform.NewIPMI(sv, platform.Options{Seed: next()})
			ag := agent.New(string(sw.ID), "network", "torswitch", plat)
			s.Agents[string(sw.ID)] = ag
			s.Net.Register(core.AgentAddr(string(sw.ID)), ag.Handler())
		}
	}

	for _, dev := range topo.Devices() {
		class, _ := dev.Kind.DeviceClass()
		s.Breakers[dev.ID] = power.NewBreaker(string(dev.ID), class, dev.Rating)
		s.deviceOrder = append(s.deviceOrder, dev.ID)
	}

	s.buildAggIndex()

	if cfg.CapLeaseTTL > 0 {
		// Arm the cap-lease fail-safe on every agent: a cap whose lease
		// goes unrenewed (dead or partitioned controller) is released and
		// surfaced as a warning alert.
		for _, id := range s.serverOrder {
			ag, ok := s.Agents[id]
			if !ok {
				continue
			}
			ag.EnableLease(loop, cfg.CapLeaseTTL, func(id string, limit power.Watts) {
				s.Alerts = append(s.Alerts, core.Alert{
					Time:       s.Loop.Now(),
					Kind:       core.KindLeaseExpired,
					Level:      core.KindLeaseExpired.Level(),
					Controller: "agent/" + id,
					Watts:      limit,
				})
			})
		}
	}

	if cfg.EnableDynamo {
		if err := s.assemble(); err != nil {
			return nil, err
		}
	}

	s.ticker = simclock.NewTicker(loop, cfg.TickInterval, s.tick)
	return s, nil
}

// assemble builds the controller tree the way the daemons do: the
// topology compiles to a config.Suite and suite.Build assembles it on the
// simulator's network (so sibling traffic pays netLatency), with every
// controller-side client — agents and siblings alike — wrapped by the
// fault injector; with no rules it is a zero-cost pass-through.
func (s *Sim) assemble() error {
	cfg := s.Cfg
	if cfg.Checkpoint {
		s.Store = statestore.NewStore(s.Loop, "sim", cfg.Telemetry)
	}
	s.Faults = faults.New(s.Loop, cfg.Seed^0xfa17, cfg.Telemetry)
	s.Faults.Add(cfg.FaultRules...)
	retry := cfg.ControlRetry
	if retry.Enabled() && retry.Seed == 0 {
		retry.Seed = cfg.Seed ^ 0x6e77
	}
	workers := cfg.Hierarchy.ControlWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	opts := suite.Options{
		Net:                 s.Net,
		Wrap:                s.Faults.WrapClient,
		Store:               s.Store,
		Retry:               retry,
		QuarantineThreshold: cfg.QuarantineThreshold,
		CapLeaseTTL:         cfg.CapLeaseTTL,
		Priorities:          cfg.Hierarchy.Priorities,
		ControlWorkers:      workers,
	}
	if cfg.ValidatorInterval > 0 {
		opts.Validators = func(device string) func() (power.Watts, bool) {
			id := topology.NodeID(device)
			return func() (power.Watts, bool) {
				v, ok := s.meter[id]
				return v, ok
			}
		}
	}
	dial := func(addr string) (rpc.Client, error) { return s.Net.Dial(addr), nil }
	alerts := func(a core.Alert) { s.Alerts = append(s.Alerts, a) }
	h, err := suite.Build(s.Loop, CompileSuite(s.Topo, cfg.Hierarchy.Bands, cfg.CappableSwitches),
		dial, alerts, cfg.Telemetry, opts)
	if err != nil {
		return err
	}
	s.Hierarchy = h
	return nil
}

// CompileSuite describes the topology's controller tree as the
// configuration the daemons load. The leaves come first: one per RPP in
// topology order, whose agents are its servers and then, with
// cappableSwitches, its top-of-rack switches in walk order (otherwise each
// rack's switch is budgeted as a constant switchDraw). The SBs follow,
// then the MSBs, each naming its children by device in child order. bands,
// when set, applies to every controller.
func CompileSuite(topo *topology.Topology, bands core.BandConfig, cappableSwitches bool) *config.Suite {
	var b *config.Bands
	if bands != (core.BandConfig{}) {
		b = &config.Bands{
			CapThresholdFrac:   bands.CapThresholdFrac,
			CapTargetFrac:      bands.CapTargetFrac,
			UncapThresholdFrac: bands.UncapThresholdFrac,
		}
	}
	device := func(n *topology.Node, level string) config.Controller {
		return config.Controller{
			Device: string(n.ID), Level: level,
			LimitWatts: float64(n.Rating), QuotaWatts: float64(n.Quota), Bands: b,
		}
	}
	agentEntry := func(id topology.NodeID, service, generation string) config.AgentEntry {
		return config.AgentEntry{ID: string(id), Service: service, Generation: generation, Addr: core.AgentAddr(string(id))}
	}
	out := &config.Suite{Name: "sim"}
	for _, rpp := range topo.OfKind(topology.KindRPP) {
		c := device(rpp, "leaf")
		servers := rpp.Servers()
		c.Agents = make([]config.AgentEntry, 0, len(servers))
		for _, srv := range servers {
			c.Agents = append(c.Agents, agentEntry(srv.ID, srv.Service, srv.Generation))
		}
		racks := 0
		rpp.Walk(func(n *topology.Node) {
			switch {
			case n.Kind == topology.KindRack:
				racks++
			case n.Kind == topology.KindSwitch && cappableSwitches:
				c.Agents = append(c.Agents, agentEntry(n.ID, "network", "torswitch"))
			}
		})
		if !cappableSwitches {
			c.NonServerWatts = float64(switchDraw) * float64(racks)
		}
		out.Controllers = append(out.Controllers, c)
	}
	for _, level := range [...]struct{ kind, child topology.Kind }{
		{topology.KindSB, topology.KindRPP},
		{topology.KindMSB, topology.KindSB},
	} {
		for _, n := range topo.OfKind(level.kind) {
			c := device(n, "upper")
			for _, ch := range n.Children {
				if ch.Kind == level.child {
					c.Children = append(c.Children, config.ChildEntry{Device: string(ch.ID), QuotaWatts: float64(ch.Quota)})
				}
			}
			out.Controllers = append(out.Controllers, c)
		}
	}
	return out
}

// Start arms the physics ticker and (when enabled) the controllers.
func (s *Sim) Start() {
	s.ticker.Start()
	if s.Hierarchy != nil {
		s.Hierarchy.StartAll()
	}
}

// Run starts (if needed) and advances the simulation by d.
func (s *Sim) Run(d time.Duration) {
	if !s.ticker.Active() {
		s.Start()
	}
	s.Loop.RunFor(d)
}

// SetTickInterval changes the physics step; scenarios use a coarse step
// to fast-forward through uneventful hours and a fine step around events.
func (s *Sim) SetTickInterval(d time.Duration) {
	if d <= 0 {
		return
	}
	s.Cfg.TickInterval = d
	s.ticker.SetPeriod(d)
}

// At schedules fn at an absolute simulation time (scenario events).
func (s *Sim) At(t time.Duration, fn func()) {
	d := t - s.Loop.Now()
	s.Loop.After(d, fn)
}

// tick advances physics in four strictly ordered stages:
//
//  1. per-service shared workload state advances once (so the sharded
//     stage only reads it);
//  2. every server steps its physics (load sample, RAPL slew, draw),
//     sharded across the worker pool — servers are mutually independent;
//  3. one bottom-up aggregation pass brings the per-tick snapshot to now
//     (fixed order, so results don't depend on the worker count);
//  4. every breaker integrates its thermal state from the snapshot and
//     trips are handled, in device order; validators, recorders, and
//     telemetry read the snapshot — no per-device subtree walks anywhere
//     on the hot path.
func (s *Sim) tick() {
	now := s.Loop.Now()
	for _, svc := range s.sharedOrder {
		s.Shared[svc].Advance(now)
	}
	s.tickServers(now)
	s.aggregate(now)
	for i, br := range s.breakerList {
		was := br.Tripped()
		draw := s.snap.dev[s.devSnapIdx[i]]
		if !br.Observe(draw, now) {
			continue
		}
		devID := s.deviceOrder[i]
		s.Trips = append(s.Trips, TripEvent{
			Device: devID, Class: br.Class(), At: now, Draw: draw,
		})
		if s.tel != nil {
			s.tripCount.Inc()
		}
		if !s.Cfg.DisableTripOutage && !was {
			s.outage(devID)
		}
	}
	if s.Cfg.ValidatorInterval > 0 {
		if s.lastMeter == 0 || now-s.lastMeter >= s.Cfg.ValidatorInterval {
			s.lastMeter = now
			for i, devID := range s.deviceOrder {
				s.meter[devID] = s.snap.dev[s.devSnapIdx[i]]
			}
		}
	}
	if s.recordEvery > 0 && (s.lastRecord == 0 || now-s.lastRecord >= s.recordEvery) {
		s.lastRecord = now
		for devID, series := range s.recorded {
			series.Add(now, float64(s.snapPower(devID)))
		}
		for srvID, series := range s.recordedServers {
			series.Add(now, float64(s.Servers[srvID].Power()))
		}
	}
	if s.tel != nil {
		s.cappedGauge.Set(float64(s.CappedServerCount()))
	}
}

// outage crashes every server beneath a tripped device — the power outage
// Dynamo exists to prevent.
func (s *Sim) outage(devID topology.NodeID) {
	node := s.Topo.Lookup(devID)
	if node == nil {
		return
	}
	for _, srv := range node.Servers() {
		s.Servers[string(srv.ID)].Crash()
	}
}

// DevicePower returns the instantaneous true power at a device: the sum
// of all downstream servers plus top-of-rack switches. For devices this
// is a snapshot lookup, after one aggregation pass if the snapshot is
// stale for the current loop time (a read between ticks). Non-device
// nodes fall back to the subtree oracle.
func (s *Sim) DevicePower(devID topology.NodeID) power.Watts {
	if i, ok := s.aggIdx[devID]; ok {
		s.refresh()
		return s.snap.dev[i]
	}
	return s.devicePowerWalk(devID)
}

// rechargeAt returns a rack's current DCUPS recharge draw, garbage
// collecting fully recharged entries. Only the aggregation pass calls it.
func (s *Sim) rechargeAt(rackID topology.NodeID, now time.Duration) power.Watts {
	if r, ok := s.recharges[rackID]; ok && now-r.start >= 5*r.tau {
		delete(s.recharges, rackID)
	}
	return s.rechargePeek(rackID, now)
}

// rechargePeek is rechargeAt without the expiry garbage collection, so
// the oracle walk stays free of side effects.
func (s *Sim) rechargePeek(rackID topology.NodeID, now time.Duration) power.Watts {
	r, ok := s.recharges[rackID]
	if !ok {
		return 0
	}
	elapsed := now - r.start
	if elapsed >= 5*r.tau {
		return 0
	}
	return power.Watts(float64(r.initial) * math.Exp(-elapsed.Seconds()/r.tau.Seconds()))
}

// RestoreDevice recovers a tripped device: the breaker is reset, every
// crashed server beneath it boots back up, and each rack's DCUPS begins
// recharging the 90 s of battery it spent riding out the outage — a
// decaying extra draw that makes recovery the most power-dangerous moment
// (the Altoona case, Fig 12).
func (s *Sim) RestoreDevice(devID topology.NodeID) {
	node := s.Topo.Lookup(devID)
	if node == nil {
		return
	}
	now := s.Loop.Now()
	node.Walk(func(n *topology.Node) {
		switch n.Kind {
		case topology.KindServer:
			if sv := s.Servers[string(n.ID)]; sv.Crashed() {
				sv.Restore()
			}
		case topology.KindRack:
			s.recharges[n.ID] = recharge{
				start:   now,
				initial: 800, // ~1/6 of a 5 kW DCUPS recharge per rack
				tau:     8 * time.Minute,
			}
		}
	})
	// The new recharge draw changes device power at this very instant.
	s.invalidateSnapshot()
	for _, dev := range s.Topo.Devices() {
		if dev == node || isAncestorOf(node, dev) {
			if br := s.Breakers[dev.ID]; br.Tripped() {
				br.Reset()
			}
		}
	}
}

// RestartAgent is the simulated init system restarting one agent's
// process: the agent serves at its address again, as it did before a
// Net.Unregister crash. Hand it to each leaf's SetRestart to let the
// leaves restart the agents they quarantine; New wires no hook.
func (s *Sim) RestartAgent(serverID string) {
	s.Net.Register(core.AgentAddr(serverID), s.Agents[serverID].Handler())
}

// isAncestorOf reports whether candidate lies in root's subtree.
func isAncestorOf(root, candidate *topology.Node) bool {
	for p := candidate; p != nil; p = p.Parent {
		if p == root {
			return true
		}
	}
	return false
}

// TotalPower returns the whole data center's true draw: every server plus
// the constant draw of non-cappable switches (cappable switches are
// counted as servers). Computed lazily in fixed server order — the
// per-tick aggregation no longer pays for an O(N) fleet sum nobody reads
// — and cached per loop timestamp.
func (s *Sim) TotalPower() power.Watts {
	s.refresh()
	if now := s.Loop.Now(); !s.snap.totalValid || s.snap.totalAt != now {
		var sum power.Watts
		for _, d := range s.snap.draw {
			sum += d
		}
		sum += power.Watts(s.constSwitches) * switchDraw
		s.snap.total = sum
		s.snap.totalAt = now
		s.snap.totalValid = true
	}
	return s.snap.total
}

// Record starts sampling the given devices' true power every interval.
func (s *Sim) Record(interval time.Duration, devices ...topology.NodeID) {
	s.recordEvery = interval
	for _, id := range devices {
		if _, ok := s.recorded[id]; !ok {
			s.recorded[id] = metrics.NewSeries(4096)
		}
	}
}

// RecordServers starts sampling individual servers' power.
func (s *Sim) RecordServers(interval time.Duration, ids ...string) {
	s.recordEvery = interval
	for _, id := range ids {
		if _, ok := s.recordedServers[id]; !ok {
			s.recordedServers[id] = metrics.NewSeries(4096)
		}
	}
}

// Series returns the recorded series for a device (nil if not recorded).
func (s *Sim) Series(devID topology.NodeID) *metrics.Series { return s.recorded[devID] }

// ServerSeries returns the recorded series for a server.
func (s *Sim) ServerSeries(id string) *metrics.Series { return s.recordedServers[id] }

// SetServiceLoadFactor scales a service's deterministic load (traffic
// shifts, load tests, site outages).
func (s *Sim) SetServiceLoadFactor(service string, f float64) {
	if sh, ok := s.Shared[service]; ok {
		sh.SetLoadFactor(f)
	}
}

// SetExtraLoadUnder adds additive load to every server under a device
// (per-row load tests, Fig 11/15).
func (s *Sim) SetExtraLoadUnder(devID topology.NodeID, extra float64) {
	for _, srv := range s.Topo.ServersUnder(devID) {
		s.Gens[string(srv.ID)].SetExtraLoad(extra)
	}
}

// SetTurboForService toggles Turbo Boost for every server of a service.
func (s *Sim) SetTurboForService(service string, on bool) {
	for _, sv := range s.tickList {
		if sv.Service() == service {
			sv.SetTurbo(on)
		}
	}
}

// LeaseExpiries sums how many caps agents have released because their
// lease went unrenewed (only nonzero with Config.CapLeaseTTL set).
func (s *Sim) LeaseExpiries() uint64 {
	var n uint64
	for _, id := range s.serverOrder {
		if ag, ok := s.Agents[id]; ok {
			n += ag.LeaseExpiries()
		}
	}
	return n
}

// CappedServerCount returns how many servers currently hold a RAPL limit.
func (s *Sim) CappedServerCount() int {
	n := 0
	for _, sv := range s.tickList {
		if _, ok := sv.Limit(); ok {
			n++
		}
	}
	return n
}

// ServiceStats aggregates performance counters for one service.
type ServiceStats struct {
	Servers   int
	Offered   float64
	Delivered float64
	// MeanSlowdown is the average instantaneous latency inflation.
	MeanSlowdown float64
}

// StatsForService summarizes a service's performance counters.
func (s *Sim) StatsForService(service string) ServiceStats {
	var st ServiceStats
	for _, sv := range s.tickList {
		if sv.Service() != service {
			continue
		}
		st.Servers++
		o, d := sv.Work()
		st.Offered += o
		st.Delivered += d
		st.MeanSlowdown += sv.Slowdown()
	}
	if st.Servers > 0 {
		st.MeanSlowdown /= float64(st.Servers)
	}
	return st
}

// ResetWork clears every server's work counters (to scope throughput
// measurements to a window).
func (s *Sim) ResetWork() {
	for _, sv := range s.tickList {
		sv.ResetWork()
	}
}

// Observations returns a monitoring snapshot of every power device:
// current draw and breaker limit, ready to feed internal/monitor. One
// snapshot refresh serves the whole batch.
func (s *Sim) Observations() []monitor.Observation {
	s.refresh()
	out := make([]monitor.Observation, 0, len(s.deviceOrder))
	for _, id := range s.deviceOrder {
		br := s.Breakers[id]
		out = append(out, monitor.Observation{
			Device: string(id),
			Class:  br.Class(),
			Power:  s.snap.dev[s.aggIdx[id]],
			Limit:  br.Rating(),
		})
	}
	return out
}

// TrippedDevices lists devices whose breakers have tripped.
func (s *Sim) TrippedDevices() []topology.NodeID {
	var out []topology.NodeID
	for _, id := range s.deviceOrder {
		if s.Breakers[id].Tripped() {
			out = append(out, id)
		}
	}
	return out
}
