package sim

import (
	"runtime"
	"sync"
	"time"

	"dynamo/internal/power"
	"dynamo/internal/server"
	"dynamo/internal/topology"
)

// parallelTickMin is the fleet size below which sharding the physics tick
// costs more in goroutine handoff than it saves; small fleets tick
// serially regardless of the worker setting.
const parallelTickMin = 256

// aggDev is one device's precomputed aggregation inputs: the tickList
// indices of the servers (and cappable switches) attached directly to it,
// its count of constant-draw switches, and the snapshot indices of its
// child devices. The slice of aggDev is ordered post-order, so children
// always carry smaller indices than their parents and one ascending pass
// aggregates the whole hierarchy — or any dirty subset of it.
type aggDev struct {
	id       topology.NodeID
	isRack   bool
	leafIdx  []int
	constSw  int
	children []int
	// parent is the snapshot index of the nearest enclosing device, -1 at
	// the top of the hierarchy (topology.Node.ParentDevice).
	parent int
	// subLo is the first snapshot index of this device's device-subtree:
	// post-order contiguity makes [subLo, own index] the subtree range.
	subLo int
	// subLeaves counts the servers/cappable switches in the device's whole
	// subtree — the multiplier of the epsilon drift bound.
	subLeaves int
}

// snapshot is the per-tick power view every consumer reads: breaker
// observations, validators, recorders, Observations, DevicePower, and
// TotalPower. It is versioned: every committed aggregation pass bumps
// version, so consumers caching derived state can detect change cheaply.
type snapshot struct {
	at      time.Duration
	valid   bool
	version uint64
	dev     []power.Watts
	// Fleet total is computed lazily (TotalPower), in fixed server order,
	// so the per-tick hot path never pays for an O(N) sum nobody reads.
	total      power.Watts
	totalAt    time.Duration
	totalValid bool
}

// AggregationStats describes how much work the incremental aggregation
// pipeline actually did — the quiescence signal the monitor publishes.
type AggregationStats struct {
	// DirtyServers is how many servers moved beyond the epsilon on the
	// last committed pass.
	DirtyServers int
	// ReaggregatedDevices is how many devices the last committed pass
	// recomputed (dirty homes plus their changed ancestor chains).
	ReaggregatedDevices int
	// Servers and Devices are the fleet totals, for ratio gauges.
	Servers int
	Devices int
	// IncrementalPasses and FullRebuilds count committed passes since
	// start; partial subtree refreshes (DevicePower between ticks) are
	// counted separately.
	IncrementalPasses uint64
	FullRebuilds      uint64
	SubtreeRefreshes  uint64
	// WorkloadActivity is the largest per-service "changed since last
	// tick" hint (workload.Shared.TickHint) observed on the last tick.
	WorkloadActivity float64
}

// buildAggIndex resolves the topology's post-order device index against
// the constructed server instances. Called once at New, after all servers
// (including cappable switches) exist.
func (s *Sim) buildAggIndex() {
	s.tickList = make([]*server.Server, len(s.serverOrder))
	tickIdx := make(map[string]int, len(s.serverOrder))
	for i, id := range s.serverOrder {
		s.tickList[i] = s.Servers[id]
		tickIdx[id] = i
	}

	post := s.Topo.DevicesPostOrder()
	s.agg = make([]aggDev, 0, len(post))
	s.aggIdx = make(map[topology.NodeID]int, len(post))
	for _, n := range post {
		d := aggDev{id: n.ID, isRack: n.Kind == topology.KindRack, parent: -1}
		for _, l := range n.DirectLeaves() {
			if li, ok := tickIdx[string(l.ID)]; ok {
				d.leafIdx = append(d.leafIdx, li)
			} else {
				d.constSw++
			}
		}
		d.subLeaves = len(d.leafIdx)
		for _, c := range n.ChildDevices() {
			ci := s.aggIdx[c.ID]
			s.agg[ci].parent = len(s.agg) // the slot this device takes below
			d.children = append(d.children, ci)
			d.subLeaves += s.agg[ci].subLeaves
		}
		lo, _, _ := n.DeviceSubtreeRange()
		d.subLo = lo
		s.aggIdx[n.ID] = len(s.agg)
		s.agg = append(s.agg, d)
	}
	s.snap.dev = make([]power.Watts, len(s.agg))
	// Every device starts dirty, so the first pass recomputes them all.
	s.devDirty = make([]bool, len(s.agg))
	for i := range s.devDirty {
		s.devDirty[i] = true
	}

	// Per-server dirty-tracking state: the draw last committed into the
	// server's home device, and that device's snapshot index (-1 when no
	// device encloses the server).
	s.lastAgg = make([]power.Watts, len(s.tickList))
	s.homeDev = make([]int, len(s.tickList))
	for i, id := range s.serverOrder {
		s.homeDev[i] = -1
		if n := s.Topo.Lookup(topology.NodeID(id)); n != nil {
			if h := n.HomeDevice(); h != nil {
				s.homeDev[i] = s.aggIdx[h.ID]
			}
		}
	}

	s.constSwitches = 0
	for _, sw := range s.Topo.OfKind(topology.KindSwitch) {
		if _, ok := s.Servers[string(sw.ID)]; !ok {
			s.constSwitches++
		}
	}

	s.workers = s.Cfg.TickWorkers
	if s.workers <= 0 {
		s.workers = runtime.GOMAXPROCS(0)
	}
	s.shardDirty = make([][]int, s.workers)

	s.breakerList = make([]*power.Breaker, len(s.deviceOrder))
	s.devSnapIdx = make([]int, len(s.deviceOrder))
	s.breakerWas = make([]bool, len(s.deviceOrder))
	s.breakerFired = make([]bool, len(s.deviceOrder))
	s.breakerDraw = make([]power.Watts, len(s.deviceOrder))
	for i, id := range s.deviceOrder {
		s.breakerList[i] = s.Breakers[id]
		s.devSnapIdx[i] = s.aggIdx[id]
	}
}

// parallelBreakerMin is the device count below which sharding the breaker
// heat integration is not worth the goroutine handoff.
const parallelBreakerMin = 64

// observeBreakers integrates every breaker's thermal state against the
// current snapshot, sharded across the worker pool. Each breaker's heat
// state is independent, and the trip results land in fixed per-device
// slots, so the subsequent serial trip handling (and therefore the whole
// run) is byte-identical at any worker count. Only the heat integration
// is sharded; trips' side effects (outages, telemetry) stay on the loop
// goroutine.
func (s *Sim) observeBreakers(now time.Duration) {
	n := len(s.breakerList)
	w := s.workers
	if w > n {
		w = n
	}
	if w <= 1 || n < parallelBreakerMin {
		for i, br := range s.breakerList {
			s.breakerWas[i] = br.Tripped()
			draw := s.snap.dev[s.devSnapIdx[i]]
			s.breakerDraw[i] = draw
			s.breakerFired[i] = br.Observe(draw, now)
		}
		return
	}
	chunk := (n + w - 1) / w
	var wg sync.WaitGroup
	for start := 0; start < n; start += chunk {
		end := start + chunk
		if end > n {
			end = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				br := s.breakerList[i]
				s.breakerWas[i] = br.Tripped()
				draw := s.snap.dev[s.devSnapIdx[i]]
				s.breakerDraw[i] = draw
				s.breakerFired[i] = br.Observe(draw, now)
			}
		}(start, end)
	}
	wg.Wait()
}

// recomputeDev re-aggregates one device at time now: DCUPS recharge (if a
// rack), directly attached server/switch draws, constant switch draw, and
// the already-committed child device totals, summed in exactly the fixed
// order every pass uses — so a device recomputed incrementally is
// bit-identical to the same device in a full rebuild. It commits each
// attached leaf's draw into lastAgg, resetting the leaf's epsilon drift.
func (s *Sim) recomputeDev(i int, now time.Duration) power.Watts {
	d := &s.agg[i]
	var sum power.Watts
	if d.isRack {
		sum += s.rechargeAt(d.id, now)
	}
	for _, li := range d.leafIdx {
		p := s.tickList[li].Power()
		s.lastAgg[li] = p
		sum += p
	}
	if d.constSw > 0 {
		sum += power.Watts(d.constSw) * switchDraw
	}
	for _, c := range d.children {
		sum += s.snap.dev[c]
	}
	return sum
}

// aggregateIncremental brings the snapshot to time now, re-aggregating
// only what changed: the home devices of servers whose draw moved beyond
// the epsilon (recorded per shard by the physics pass), every rack with an
// active DCUPS recharge (their draw is time-dependent), and the ancestor
// chains of any device whose total actually changed. Untouched devices
// keep their snapshot entries, which at epsilon=0 are bit-for-bit what a
// full rebuild would recompute (their inputs are unchanged and the
// per-device summation order is fixed). The first pass finds every device
// dirty (buildAggIndex) and is counted as the one full rebuild.
//
//dynamo:serial
func (s *Sim) aggregateIncremental(now time.Duration) {
	dirty := s.drainDirty()
	reagg := s.reaggregate(0, len(s.agg)-1, now)
	if s.snap.version == 0 {
		s.statFullRebuilds++
	} else {
		s.statIncPasses++
	}
	s.commit(now, dirty, reagg)
}

// reaggregate recomputes the dirty devices with snapshot indices in
// [lo, hi] in ascending post-order, so a dirty child always commits before
// its parent reads it, and marks the parent of every device whose total
// changed. It returns how many devices it recomputed.
//
//dynamo:serial
func (s *Sim) reaggregate(lo, hi int, now time.Duration) int {
	n := 0
	for i := lo; i <= hi; i++ {
		if !s.devDirty[i] {
			continue
		}
		s.devDirty[i] = false
		sum := s.recomputeDev(i, now)
		n++
		if sum != s.snap.dev[i] {
			s.snap.dev[i] = sum
			if p := s.agg[i].parent; p >= 0 {
				s.devDirty[p] = true
			}
		}
	}
	return n
}

// drainDirty folds the per-shard dirty-server lists into the per-device
// dirty marks and marks every recharging rack (time-dependent draw).
// Marking is idempotent and commutative, so shard order never matters.
// Returns the dirty-server count.
//
//dynamo:serial
func (s *Sim) drainDirty() int {
	dirty := 0
	for w := range s.shardDirty {
		for _, li := range s.shardDirty[w] {
			if h := s.homeDev[li]; h >= 0 {
				s.devDirty[h] = true
			}
		}
		dirty += len(s.shardDirty[w])
		s.shardDirty[w] = s.shardDirty[w][:0]
	}
	for rackID := range s.recharges {
		s.devDirty[s.aggIdx[rackID]] = true
	}
	return dirty
}

// commit finalizes a global aggregation pass at time now.
//
//dynamo:serial
func (s *Sim) commit(now time.Duration, dirtyServers, reagg int) {
	s.snap.at = now
	s.snap.valid = true
	s.snap.version++
	s.statDirtyServers = dirtyServers
	s.statReaggDevices = reagg
}

// refresh re-aggregates if the snapshot does not describe the current
// loop time (e.g. a scenario callback querying between ticks, or any
// query before the first tick). Within one timestamp the snapshot is
// computed at most once unless explicitly invalidated.
func (s *Sim) refresh() {
	if now := s.Loop.Now(); !s.snap.valid || s.snap.at != now {
		s.aggregateIncremental(now)
	}
}

// refreshDevice brings one device's snapshot entry (and its whole device
// subtree) to the current loop time without rebuilding — or even globally
// re-aggregating — the rest of the snapshot: only the dirty devices
// inside the queried subtree's contiguous post-order range are
// recomputed. snap.at is left untouched, so the next global refresh still
// runs; ancestors a partial refresh dirtied are picked up then.
func (s *Sim) refreshDevice(i int) {
	if !s.snap.valid {
		s.refresh()
		return
	}
	now := s.Loop.Now()
	if s.snap.at == now {
		return
	}
	s.drainDirty()
	s.reaggregate(s.agg[i].subLo, i, now)
	s.statSubtreeRefreshes++
}

// invalidateSnapshot forces the next read to re-aggregate; called by
// mutations that change device draw at the current instant (DCUPS
// recharge start on restore). The dirty marks persist across the
// invalidation, so the forced pass is still incremental: it recomputes
// the recharging racks' chains, not the fleet.
func (s *Sim) invalidateSnapshot() {
	s.snap.valid = false
	s.snap.totalValid = false
}

// tickServers advances every server's physics to now, sharded across the
// worker pool, and records each server whose draw moved beyond the
// aggregation epsilon into the ticking shard's dirty list. Each server is
// ticked exactly once by one goroutine; servers are mutually independent
// (per-server generator RNG, shared workload state pre-advanced and
// read-only during the step), and the dirty verdict is a pure function of
// one server's draw, so the result is byte-identical to the serial loop
// at any worker count.
func (s *Sim) tickServers(now time.Duration) {
	n := len(s.tickList)
	w := s.workers
	if w > n {
		w = n
	}
	eps := s.Cfg.AggregationEpsilon
	if w <= 1 || n < parallelTickMin {
		shard := s.shardDirty[0]
		for i, sv := range s.tickList {
			sv.Tick(now)
			if d := sv.Power() - s.lastAgg[i]; d > eps || d < -eps {
				shard = append(shard, i)
			}
		}
		s.shardDirty[0] = shard
		return
	}
	chunk := (n + w - 1) / w
	var wg sync.WaitGroup
	shardNo := 0
	for start := 0; start < n; start += chunk {
		end := start + chunk
		if end > n {
			end = n
		}
		wg.Add(1)
		go func(lo, hi, sh int) {
			defer wg.Done()
			shard := s.shardDirty[sh]
			for i := lo; i < hi; i++ {
				sv := s.tickList[i]
				sv.Tick(now)
				if d := sv.Power() - s.lastAgg[i]; d > eps || d < -eps {
					shard = append(shard, i)
				}
			}
			s.shardDirty[sh] = shard
		}(start, end, shardNo)
		shardNo++
	}
	wg.Wait()
}

// snapPower returns a node's draw from the current snapshot, falling back
// to the subtree oracle for nodes outside the device index (the root, a
// single server). Callers must have refreshed or just aggregated.
func (s *Sim) snapPower(devID topology.NodeID) power.Watts {
	if i, ok := s.aggIdx[devID]; ok {
		return s.snap.dev[i]
	}
	return s.devicePowerWalk(devID)
}

// devicePowerWalk is a full subtree walk summing every server, switch,
// and rack recharge below the node: the answer for queries on non-device
// nodes (the datacenter root, a single server), and the oracle the tests
// cross-check the snapshot against. Unlike the snapshot path it never
// mutates recharge state.
func (s *Sim) devicePowerWalk(devID topology.NodeID) power.Watts {
	node := s.Topo.Lookup(devID)
	if node == nil {
		return 0
	}
	var sum power.Watts
	now := s.Loop.Now()
	node.Walk(func(n *topology.Node) {
		switch n.Kind {
		case topology.KindServer:
			sum += s.Servers[string(n.ID)].Power()
		case topology.KindSwitch:
			if sv, ok := s.Servers[string(n.ID)]; ok {
				sum += sv.Power() // cappable switch: measured draw
			} else {
				sum += switchDraw
			}
		case topology.KindRack:
			sum += s.rechargePeek(n.ID, now)
		}
	})
	return sum
}

// AggregationStats reports the incremental pipeline's work counters as of
// the last committed pass.
func (s *Sim) AggregationStats() AggregationStats {
	return AggregationStats{
		DirtyServers:        s.statDirtyServers,
		ReaggregatedDevices: s.statReaggDevices,
		Servers:             len(s.tickList),
		Devices:             len(s.agg),
		IncrementalPasses:   s.statIncPasses,
		FullRebuilds:        s.statFullRebuilds,
		SubtreeRefreshes:    s.statSubtreeRefreshes,
		WorkloadActivity:    s.statWorkloadHint,
	}
}
