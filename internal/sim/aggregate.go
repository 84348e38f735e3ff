package sim

import (
	"runtime"
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
// aggregates the whole hierarchy.
type aggDev struct {
	id       topology.NodeID
	isRack   bool
	leafIdx  []int
	constSw  int
	children []int
}

// snapshot is the per-tick power view every consumer reads: breaker
// observations, validators, recorders, Observations, DevicePower, and
// TotalPower.
type snapshot struct {
	at     time.Duration
	valid  bool
	passes uint64 // aggregation passes so far; read only by AggregationStats
	dev    []power.Watts
	// draw is every server's draw in tick order, written by tickServers
	// right after each Tick, so the pass reads one dense slice instead of
	// the servers the shard loop has just moved through the cache.
	draw []power.Watts
	// Fleet total is computed lazily (TotalPower), in fixed server order,
	// so the per-tick hot path never pays for an O(N) sum nobody reads.
	total      power.Watts
	totalAt    time.Duration
	totalValid bool
}

// buildAggIndex resolves the topology's post-order device index against
// the constructed server instances. Called once at New, after all servers
// (including cappable switches) exist.
func (s *Sim) buildAggIndex() {
	s.tickList = make([]*server.Server, len(s.serverOrder))
	s.snap.draw = make([]power.Watts, len(s.serverOrder))
	tickIdx := make(map[string]int, len(s.serverOrder))
	for i, id := range s.serverOrder {
		s.tickList[i] = s.Servers[id]
		s.snap.draw[i] = s.tickList[i].Power()
		tickIdx[id] = i
	}

	post := s.Topo.DevicesPostOrder()
	s.agg = make([]aggDev, 0, len(post))
	s.aggIdx = make(map[topology.NodeID]int, len(post))
	for _, n := range post {
		d := aggDev{id: n.ID, isRack: n.Kind == topology.KindRack}
		for _, l := range n.DirectLeaves() {
			if li, ok := tickIdx[string(l.ID)]; ok {
				d.leafIdx = append(d.leafIdx, li)
			} else {
				d.constSw++
			}
		}
		for _, c := range n.ChildDevices() {
			d.children = append(d.children, s.aggIdx[c.ID])
		}
		s.aggIdx[n.ID] = len(s.agg)
		s.agg = append(s.agg, d)
	}
	s.snap.dev = make([]power.Watts, len(s.agg))

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
	s.tickShards = make([]func(), s.workers)
	for i := range s.tickShards {
		s.tickShards[i] = func() { s.tickShard(i) }
	}

	s.breakerList = make([]*power.Breaker, len(s.deviceOrder))
	s.devSnapIdx = make([]int, len(s.deviceOrder))
	for i, id := range s.deviceOrder {
		s.breakerList[i] = s.Breakers[id]
		s.devSnapIdx[i] = s.aggIdx[id]
	}
}

// aggregate brings the snapshot to time now in one ascending pass over the
// post-order device index, so every child's total is written before its
// parent reads it. Each device sums, in this fixed order, its DCUPS
// recharge (if a rack), its directly attached server and cappable-switch
// draws, its constant switch draw and its child devices' totals — the
// result never depends on the worker count.
//
//dynamo:serial
func (s *Sim) aggregate(now time.Duration) {
	for i := range s.agg {
		d := &s.agg[i]
		var sum power.Watts
		if d.isRack {
			sum += s.rechargeAt(d.id, now)
		}
		for _, li := range d.leafIdx {
			sum += s.snap.draw[li]
		}
		if d.constSw > 0 {
			sum += power.Watts(d.constSw) * switchDraw
		}
		for _, c := range d.children {
			sum += s.snap.dev[c]
		}
		s.snap.dev[i] = sum
	}
	s.snap.at = now
	s.snap.valid = true
	s.snap.passes++
}

// refresh re-aggregates if the snapshot does not describe the current
// loop time (e.g. a scenario callback querying between ticks, or any
// query before the first tick). Within one timestamp the snapshot is
// computed at most once unless explicitly invalidated.
func (s *Sim) refresh() {
	if now := s.Loop.Now(); !s.snap.valid || s.snap.at != now {
		s.aggregate(now)
	}
}

// invalidateSnapshot forces the next read to re-aggregate; called by
// mutations that change device draw at the current instant (DCUPS
// recharge start on restore).
func (s *Sim) invalidateSnapshot() {
	s.snap.valid = false
	s.snap.totalValid = false
}

// tickServers advances every server's physics to now, sharded across the
// worker pool. Each server is ticked exactly once by one goroutine;
// servers are mutually independent (per-server generator RNG, shared
// workload state pre-advanced and read-only during the step), so the
// result is byte-identical to the serial loop at any worker count.
func (s *Sim) tickServers(now time.Duration) {
	n := len(s.tickList)
	w := s.workers
	if w > n {
		w = n
	}
	if w <= 1 || n < parallelTickMin {
		s.tickRange(now, 0, n)
		return
	}
	s.tickChunk, s.tickNow = (n+w-1)/w, now
	for i := 0; i*s.tickChunk < n; i++ {
		s.tickWG.Add(1)
		go s.tickShards[i]()
	}
	s.tickWG.Wait()
}

// tickShard ticks chunk i of the tick list, on a worker goroutine.
func (s *Sim) tickShard(i int) {
	defer s.tickWG.Done()
	lo := i * s.tickChunk
	s.tickRange(s.tickNow, lo, min(lo+s.tickChunk, len(s.tickList)))
}

// tickRange ticks servers [lo, hi) of the tick list and records each draw
// in the snapshot's draw slice: the only place sim ticks a server after
// New, so the slice always equals the servers' Power.
func (s *Sim) tickRange(now time.Duration, lo, hi int) {
	draw := s.snap.draw[lo:hi]
	for i, sv := range s.tickList[lo:hi] {
		sv.Tick(now)
		draw[i] = sv.Power()
	}
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

// AggregationStats exists only for the frozen bench/simrun.go (ROADMAP
// leftover): a pass sums every server into every device.
type AggregationStats struct {
	DirtyServers, ReaggregatedDevices int
	FullRebuilds                      uint64
}

func (s *Sim) AggregationStats() AggregationStats {
	return AggregationStats{len(s.tickList), len(s.agg), s.snap.passes}
}
