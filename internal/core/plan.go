package core

import (
	"cmp"
	"math"
	"slices"
	"strings"

	"dynamo/internal/power"
)

// ServerState is the leaf controller's view of one downstream server when
// planning a capping action.
type ServerState struct {
	ID      string
	Service string
	// Power is the server's current draw (possibly estimated).
	Power power.Watts
}

// PriorityConfig maps services to priority groups and SLA floors
// (paper §III-C3). Higher priority numbers are more protected: capping
// consumes lower-priority groups first.
type PriorityConfig struct {
	// Priority maps service name → priority group.
	Priority map[string]int
	// DefaultPriority applies to unknown services.
	DefaultPriority int
	// MinCap is the SLA floor per priority group: the lowest allowed
	// per-server power cap. Services in higher-priority groups typically
	// carry higher floors.
	MinCap map[int]power.Watts
	// DefaultMinCap applies when a group has no explicit floor.
	DefaultMinCap power.Watts
	// BucketSize is the high-bucket-first bucket width; the paper found
	// 10–30 W works well and deploys 20 W.
	BucketSize power.Watts
}

// DefaultPriorityConfig returns the paper's service ordering: cache and
// database protected above web and newsfeed, with batch (hadoop) and
// storage capped first.
func DefaultPriorityConfig() PriorityConfig {
	return PriorityConfig{
		Priority: map[string]int{
			"hadoop":    0,
			"f4storage": 1,
			"web":       2,
			"newsfeed":  2,
			"search":    2,
			"database":  3,
			"cache":     4,
			// Cappable network devices (§III-E extension): throttling a
			// switch affects every server behind it, so the network group
			// is consumed last.
			"network": 5,
		},
		DefaultPriority: 2,
		MinCap: map[int]power.Watts{
			0: 120,
			1: 130,
			2: 150,
			3: 170,
			4: 180,
			5: 130,
		},
		DefaultMinCap: 150,
		BucketSize:    20,
	}
}

// priorityOf returns the service's priority group.
func (c PriorityConfig) priorityOf(service string) int {
	if p, ok := c.Priority[service]; ok {
		return p
	}
	return c.DefaultPriority
}

// minCapOf returns the SLA floor for a priority group.
func (c PriorityConfig) minCapOf(group int) power.Watts {
	if m, ok := c.MinCap[group]; ok {
		return m
	}
	return c.DefaultMinCap
}

// PlannedCap is one server's assignment in a capping plan.
type PlannedCap struct {
	ID string
	// Cap is the new power limit: current power less the allocated cut.
	Cap power.Watts
	// Cut is the power reduction assigned to this server.
	Cut power.Watts
}

// Plan is the outcome of distributing a total-power-cut across servers.
type Plan struct {
	Caps []PlannedCap
	// Achieved is the total cut the plan realizes.
	Achieved power.Watts
	// Shortfall is the unmet portion of the requested cut after every
	// group hit its SLA floor (> 0 means the device stays hot and the
	// parent or a human must act).
	Shortfall power.Watts
}

// ComputePlan distributes totalCut across servers, lowest priority group
// first, high-bucket-first within each group (paper §III-C3). Server IDs
// must be unique.
//
// Within a group, servers are bucketed by current power (bucket width
// cfg.BucketSize). Buckets are consumed from the highest down: the active
// set's servers may be cut down to the active bucket's lower edge (but
// never below the group's SLA floor). If that capacity is insufficient,
// the next bucket joins the active set and the floor drops by one bucket
// width — reproducing the Fig 16 picture where all web servers above
// 210 W share the cut and every computed cap is at least 210 W.
func ComputePlan(servers []ServerState, totalCut power.Watts, cfg PriorityConfig) Plan {
	var pl planner
	pl.start(len(servers))
	for i := range servers {
		pl.add(i, cfg.priorityOf(servers[i].Service), servers[i].Power)
	}
	var plan Plan
	var capped []member
	plan.Achieved, plan.Shortfall, capped = pl.plan(totalCut, cfg, func(i int) string { return servers[i].ID })
	if len(capped) > 0 {
		plan.Caps = make([]PlannedCap, len(capped))
		for k, m := range capped {
			plan.Caps[k] = PlannedCap{ID: servers[m.i].ID, Cap: m.power - m.cut, Cut: m.cut}
		}
	}
	return plan
}

// planner is the scratch capping plans are computed in. A controller keeps
// one, so once it has grown to the controller's children planning
// allocates nothing; ComputePlan uses a fresh one.
type planner struct {
	members []member
	rooms   []room
}

// member is one server being planned: the power the plan cuts from, its
// index in the caller's list and its priority group, and what planGroup
// works out for it — its bucket, its cut, and whether it was given a
// share (hit, possibly of nothing). Its cap is power - cut.
type member struct {
	power power.Watts
	cut   power.Watts
	i     int32
	prio  int32
	edge  int32
	hit   bool
}

// start begins a plan over n servers, sizing the scratch to n the first
// time.
func (pl *planner) start(n int) {
	if cap(pl.members) < n {
		pl.members = make([]member, 0, n)
		pl.rooms = make([]room, 0, n)
	}
	pl.members = pl.members[:0]
}

// add enters server i of the caller's list, drawing pw, in priority group
// prio.
func (pl *planner) add(i, prio int, pw power.Watts) {
	pl.members = append(pl.members, member{power: pw, i: int32(i), prio: int32(prio)})
}

// plan distributes totalCut over the servers added since start, as
// ComputePlan does; id names server i. It returns the cut achieved, the
// shortfall and the members it cuts, ordered by ID: the planner's
// scratch, valid until its next start.
func (pl *planner) plan(totalCut power.Watts, cfg PriorityConfig, id func(i int) string) (achieved, shortfall power.Watts, capped []member) {
	ms := pl.members
	if totalCut <= 0 || len(ms) == 0 {
		return 0, 0, nil
	}
	bucket := cfg.BucketSize
	if bucket <= 0 {
		bucket = 20
	}

	// Group servers by priority, ascending (cap lowest priority first),
	// each group in input order.
	slices.SortStableFunc(ms, func(a, b member) int { return cmp.Compare(a.prio, b.prio) })
	remaining := totalCut
	for lo, hi := 0, 0; lo < len(ms) && remaining > 0; lo = hi {
		prio := ms[lo].prio
		for hi = lo + 1; hi < len(ms) && ms[hi].prio == prio; hi++ {
		}
		got := pl.planGroup(ms[lo:hi], remaining, bucket, cfg.minCapOf(int(prio)))
		achieved += got
		remaining -= got
	}
	if remaining > 0 {
		shortfall = remaining
	}
	capped = ms[:0] // compacted in place: it never overtakes the range
	for _, m := range ms {
		if m.cut > 0 {
			capped = append(capped, m)
		}
	}
	// Deterministic order for tests and logs.
	slices.SortFunc(capped, func(a, b member) int { return strings.Compare(id(int(a.i)), id(int(b.i))) })
	return achieved, shortfall, capped
}

// planGroup distributes cut within one group (its members in group order,
// each with a zero cut) using high-bucket-first: it adds each member's
// share to its cut and returns the achieved total. It reorders group.
//
// The cap level descends one bucket edge per round: servers in the highest
// bucket are cut down toward the next bucket edge first; when that is not
// enough, the next bucket's servers join the active set and the floor
// drops another bucket width, and so on until the cut is satisfied or the
// floor reaches the group's SLA lower bound.
func (pl *planner) planGroup(group []member, cut, bucket, slaFloor power.Watts) power.Watts {
	if cut <= 0 || len(group) == 0 {
		return 0
	}
	maxEdge := math.MinInt32
	for k := range group {
		m := &group[k]
		e := int(math.Floor(float64(m.power) / float64(bucket)))
		m.edge = int32(e)
		if e > maxEdge {
			maxEdge = e
		}
	}
	// Highest bucket first, group order within a bucket: the order the
	// rounds admit servers to the active set, group[:active]. Their
	// position there decides tie-breaks in distributeEven's water-filling
	// sort.
	slices.SortStableFunc(group, func(a, b member) int { return cmp.Compare(b.edge, a.edge) })

	remaining := cut
	var achieved power.Watts
	active := 0
	for edge := maxEdge; remaining > 0 && edge >= 0; edge-- {
		floor := power.Watts(edge) * bucket
		lowest := edge // the lowest bucket admitted this round
		final := false
		if floor <= slaFloor {
			// Final round: the SLA bound is the floor, and every server
			// in the group (including those in lower buckets) may
			// contribute its remaining headroom above it.
			floor = slaFloor
			final = true
			lowest = 0
		}
		for active < len(group) && int(group[active].edge) >= lowest {
			active++
		}
		rooms := pl.rooms[:0]
		var capacity power.Watts
		for k := range group[:active] {
			head := group[k].power - floor - group[k].cut
			if head < 0 {
				head = 0
			}
			rooms = append(rooms, room{idx: k, head: head})
			capacity += head
		}
		pl.rooms = rooms
		take := remaining
		if take > capacity {
			take = capacity
		}
		if take > 0 {
			distributeEven(group, rooms, take)
			achieved += take
			remaining -= take
		}
		if final {
			break
		}
	}
	return achieved
}

// room tracks one active server's remaining cuttable headroom.
type room struct {
	idx  int
	head power.Watts
}

// distributeEven spreads take across the active servers as evenly as
// possible subject to per-server headroom (water-filling): the paper's
// "within the bucket, all servers will get an even amount of power cut".
func distributeEven(group []member, rooms []room, take power.Watts) {
	// Sort by headroom ascending; assign min(even share, headroom).
	slices.SortFunc(rooms, func(a, b room) int {
		switch {
		case a.head < b.head:
			return -1
		case a.head > b.head:
			return 1
		}
		return 0
	})
	n := len(rooms)
	for i, r := range rooms {
		if take <= 0 {
			break
		}
		left := n - i
		share := take / power.Watts(left)
		give := share
		if give > r.head {
			give = r.head
		}
		m := &group[r.idx]
		m.cut += give
		m.hit = true
		take -= give
	}
}
