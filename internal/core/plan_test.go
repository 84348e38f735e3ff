package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"dynamo/internal/power"
	"dynamo/internal/simclock"
)

func TestBandConfigValidate(t *testing.T) {
	if err := DefaultBandConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []BandConfig{
		{CapThresholdFrac: 0.9, CapTargetFrac: 0.95, UncapThresholdFrac: 0.8}, // target > threshold
		{CapThresholdFrac: 0.99, CapTargetFrac: 0.95, UncapThresholdFrac: 0.96},
		{CapThresholdFrac: 1.2, CapTargetFrac: 0.95, UncapThresholdFrac: 0.9},
		{},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d should fail: %+v", i, c)
		}
	}
}

func TestBandsDecide(t *testing.T) {
	b := DefaultBandConfig().BandsFor(power.KW(100))
	cases := []struct {
		agg    power.Watts
		capped bool
		want   Action
	}{
		{power.KW(100), false, ActionCap}, // above threshold (99 kW)
		{power.KW(99.5), true, ActionCap}, // still above threshold
		{power.KW(97), false, ActionNone}, // hysteresis band
		{power.KW(97), true, ActionNone},  // between uncap and threshold
		{power.KW(85), true, ActionUncap}, // below uncap threshold (90 kW)
		{power.KW(85), false, ActionNone}, // nothing to uncap
	}
	for _, c := range cases {
		if got := b.Decide(c.agg, c.capped); got != c.want {
			t.Errorf("Decide(%v, capped=%v) = %v, want %v", c.agg, c.capped, got, c.want)
		}
	}
}

func TestActionString(t *testing.T) {
	if ActionCap.String() != "cap" || ActionUncap.String() != "uncap" || ActionNone.String() != "none" {
		t.Error("action strings")
	}
	if Action(9).String() == "" {
		t.Error("unknown action string")
	}
}

func mkServers(service string, powers ...float64) []ServerState {
	out := make([]ServerState, len(powers))
	for i, p := range powers {
		out[i] = ServerState{
			ID:      fmt.Sprintf("%s-%02d", service, i),
			Service: service,
			Power:   power.Watts(p),
		}
	}
	return out
}

func planCutFor(t *testing.T, plan Plan, id string) power.Watts {
	t.Helper()
	for _, c := range plan.Caps {
		if c.ID == id {
			return c.Cut
		}
	}
	return 0
}

func TestComputePlanEmpty(t *testing.T) {
	cfg := DefaultPriorityConfig()
	if p := ComputePlan(nil, 100, cfg); len(p.Caps) != 0 || p.Achieved != 0 {
		t.Error("empty servers should produce empty plan")
	}
	if p := ComputePlan(mkServers("web", 250), 0, cfg); len(p.Caps) != 0 {
		t.Error("zero cut should produce empty plan")
	}
}

func TestComputePlanHighBucketFirst(t *testing.T) {
	cfg := DefaultPriorityConfig()
	// One high consumer (300 W) and several at 230 W: a small cut should
	// come entirely out of the 300 W server ("punish first servers
	// consuming more power").
	servers := mkServers("web", 300, 230, 230, 230)
	plan := ComputePlan(servers, 30, cfg)
	if plan.Shortfall != 0 {
		t.Fatalf("shortfall = %v", plan.Shortfall)
	}
	if got := planCutFor(t, plan, "web-00"); math.Abs(float64(got-30)) > 1e-9 {
		t.Errorf("high server cut = %v, want 30", got)
	}
	for _, id := range []string{"web-01", "web-02", "web-03"} {
		if got := planCutFor(t, plan, id); got != 0 {
			t.Errorf("%s cut = %v, want 0", id, got)
		}
	}
}

func TestComputePlanExpandsBuckets(t *testing.T) {
	cfg := DefaultPriorityConfig()
	// 300 W server alone can only give 20 W before hitting the 280 W
	// bucket edge; a 60 W cut must spill into the 280 W bucket.
	servers := mkServers("web", 300, 285, 285)
	plan := ComputePlan(servers, 60, cfg)
	if plan.Shortfall != 0 {
		t.Fatalf("shortfall = %v", plan.Shortfall)
	}
	var total power.Watts
	for _, c := range plan.Caps {
		total += c.Cut
	}
	if math.Abs(float64(total-60)) > 1e-6 {
		t.Errorf("total cut = %v, want 60", total)
	}
	if got := planCutFor(t, plan, "web-00"); got < 20 {
		t.Errorf("highest server should give at least its bucket headroom, got %v", got)
	}
	if planCutFor(t, plan, "web-01") == 0 && planCutFor(t, plan, "web-02") == 0 {
		t.Error("cut should expand into the next bucket")
	}
}

func TestComputePlanEvenWithinBucket(t *testing.T) {
	cfg := DefaultPriorityConfig()
	servers := mkServers("web", 290, 290, 290, 290)
	plan := ComputePlan(servers, 40, cfg)
	for _, c := range plan.Caps {
		if math.Abs(float64(c.Cut-10)) > 1e-9 {
			t.Errorf("%s cut = %v, want even 10", c.ID, c.Cut)
		}
	}
}

func TestComputePlanPriorityOrdering(t *testing.T) {
	cfg := DefaultPriorityConfig()
	// Mixed row like Fig 15: web + cache + feed. A moderate cut must not
	// touch cache (highest priority).
	servers := append(mkServers("web", 280, 270, 260),
		append(mkServers("cache", 290, 290), mkServers("newsfeed", 250, 240)...)...)
	plan := ComputePlan(servers, 100, cfg)
	for _, c := range plan.Caps {
		if c.ID[:5] == "cache" {
			t.Errorf("cache server %s was capped (cut %v)", c.ID, c.Cut)
		}
	}
	if plan.Shortfall != 0 {
		t.Errorf("shortfall = %v", plan.Shortfall)
	}
}

func TestComputePlanSpillsToHigherPriority(t *testing.T) {
	cfg := DefaultPriorityConfig()
	// An enormous cut exhausts web headroom (SLA floor 150 W) and must
	// spill into cache.
	servers := append(mkServers("web", 250, 250), mkServers("cache", 300, 300)...)
	plan := ComputePlan(servers, 350, cfg)
	webCap := power.Watts(2 * (250 - 150))
	if plan.Achieved <= webCap {
		t.Fatalf("achieved %v should exceed web headroom %v via cache", plan.Achieved, webCap)
	}
	cacheCut := planCutFor(t, plan, "cache-00") + planCutFor(t, plan, "cache-01")
	if cacheCut <= 0 {
		t.Error("cache should absorb the residual cut")
	}
}

func TestComputePlanRespectsSLAFloor(t *testing.T) {
	cfg := DefaultPriorityConfig()
	servers := mkServers("web", 250, 250, 250)
	// Ask for far more than available: each server can give at most
	// 250−150 = 100 W.
	plan := ComputePlan(servers, 1000, cfg)
	if math.Abs(float64(plan.Achieved-300)) > 1e-6 {
		t.Errorf("achieved = %v, want 300", plan.Achieved)
	}
	if math.Abs(float64(plan.Shortfall-700)) > 1e-6 {
		t.Errorf("shortfall = %v, want 700", plan.Shortfall)
	}
	for _, c := range plan.Caps {
		if c.Cap < 150-1e-9 {
			t.Errorf("%s cap %v below SLA floor", c.ID, c.Cap)
		}
	}
}

// TestComputePlanFig16Shape reproduces the Fig 16 snapshot: with a bucket
// floor at 210 W, only servers above 210 W receive caps and every cap is
// at least 210 W; cache is untouched.
func TestComputePlanFig16Shape(t *testing.T) {
	cfg := DefaultPriorityConfig()
	cfg.MinCap = map[int]power.Watts{2: 210}
	cfg.DefaultMinCap = 210
	var servers []ServerState
	for i := 0; i < 200; i++ {
		servers = append(servers, ServerState{
			ID: fmt.Sprintf("web-%03d", i), Service: "web",
			Power: power.Watts(180 + float64(i%140)),
		})
	}
	for i := 0; i < 150; i++ {
		servers = append(servers, ServerState{
			ID: fmt.Sprintf("cache-%03d", i), Service: "cache",
			Power: power.Watts(200 + float64(i%80)),
		})
	}
	for i := 0; i < 40; i++ {
		servers = append(servers, ServerState{
			ID: fmt.Sprintf("feed-%03d", i), Service: "newsfeed",
			Power: power.Watts(190 + float64(i%120)),
		})
	}
	plan := ComputePlan(servers, power.KW(6), cfg)
	if len(plan.Caps) == 0 {
		t.Fatal("expected caps")
	}
	byID := map[string]ServerState{}
	for _, s := range servers {
		byID[s.ID] = s
	}
	for _, c := range plan.Caps {
		s := byID[c.ID]
		if s.Service == "cache" {
			t.Fatalf("cache server %s capped", c.ID)
		}
		if c.Cap < 210-1e-9 {
			t.Errorf("%s cap %v below 210 W floor", c.ID, c.Cap)
		}
		if s.Power <= 210 {
			t.Errorf("server %s at %v (≤210 W) should not be capped", c.ID, s.Power)
		}
	}
}

// Property: for any fleet and cut, (1) total assigned cuts equal Achieved,
// (2) Achieved + Shortfall equals the requested cut, (3) no cap is below
// the group SLA floor, and (4) no cut exceeds the server's power.
func TestComputePlanInvariantsProperty(t *testing.T) {
	cfg := DefaultPriorityConfig()
	services := []string{"web", "cache", "hadoop", "database"}
	f := func(raw []uint16, cutRaw uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		servers := make([]ServerState, len(raw))
		for i, r := range raw {
			servers[i] = ServerState{
				ID:      fmt.Sprintf("s%03d", i),
				Service: services[int(r)%len(services)],
				Power:   power.Watts(100 + float64(r%300)),
			}
		}
		cut := power.Watts(float64(cutRaw % 20000))
		plan := ComputePlan(servers, cut, cfg)
		var total power.Watts
		for _, c := range plan.Caps {
			s := servers[0]
			for _, x := range servers {
				if x.ID == c.ID {
					s = x
					break
				}
			}
			floor := cfg.minCapOf(cfg.priorityOf(s.Service))
			if c.Cap < floor-1e-6 && c.Cut > 0 && s.Power > floor {
				return false
			}
			if c.Cut > s.Power+1e-6 || c.Cut < 0 {
				return false
			}
			total += c.Cut
		}
		if math.Abs(float64(total-plan.Achieved)) > 1e-3 {
			return false
		}
		if cut > 0 && math.Abs(float64(plan.Achieved+plan.Shortfall-cut)) > 1e-3 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPriorityDefaults(t *testing.T) {
	cfg := DefaultPriorityConfig()
	if cfg.priorityOf("cache") <= cfg.priorityOf("web") {
		t.Error("cache must outrank web (paper §III-C3)")
	}
	if cfg.priorityOf("unknownsvc") != cfg.DefaultPriority {
		t.Error("unknown service should get default priority")
	}
	if cfg.minCapOf(99) != cfg.DefaultMinCap {
		t.Error("unknown group should get default floor")
	}
}

// The map-based planner the kept-scratch planner replaced, kept as the
// reference it must match bit for bit: refComputePlan is ComputePlan,
// refPlanGroup planGroup and refPlanChildCuts Upper.planChildCuts as they
// were.

func refComputePlan(servers []ServerState, totalCut power.Watts, cfg PriorityConfig) Plan {
	var plan Plan
	if totalCut <= 0 || len(servers) == 0 {
		return plan
	}
	bucket := cfg.BucketSize
	if bucket <= 0 {
		bucket = 20
	}
	groups := map[int][]ServerState{}
	for _, s := range servers {
		p := cfg.priorityOf(s.Service)
		groups[p] = append(groups[p], s)
	}
	prios := make([]int, 0, len(groups))
	for p := range groups {
		prios = append(prios, p)
	}
	sort.Ints(prios)
	remaining := totalCut
	for _, prio := range prios {
		if remaining <= 0 {
			break
		}
		group := groups[prio]
		cuts, achieved := refPlanGroup(group, remaining, bucket, cfg.minCapOf(prio))
		for id, cut := range cuts {
			if cut <= 0 {
				continue
			}
			cur := power.Watts(0)
			for _, s := range group {
				if s.ID == id {
					cur = s.Power
					break
				}
			}
			plan.Caps = append(plan.Caps, PlannedCap{ID: id, Cap: cur - cut, Cut: cut})
		}
		plan.Achieved += achieved
		remaining -= achieved
	}
	if remaining > 0 {
		plan.Shortfall = remaining
	}
	sort.Slice(plan.Caps, func(i, j int) bool { return plan.Caps[i].ID < plan.Caps[j].ID })
	return plan
}

func refPlanGroup(group []ServerState, cut power.Watts, bucket, slaFloor power.Watts) (map[string]power.Watts, power.Watts) {
	cuts := make(map[string]power.Watts)
	if cut <= 0 || len(group) == 0 {
		return cuts, 0
	}
	bucketOf := func(w power.Watts) int {
		return int(math.Floor(float64(w) / float64(bucket)))
	}
	byEdge := map[int][]ServerState{}
	maxEdge := math.MinInt32
	for _, s := range group {
		e := bucketOf(s.Power)
		byEdge[e] = append(byEdge[e], s)
		if e > maxEdge {
			maxEdge = e
		}
	}
	remaining := cut
	var achieved power.Watts
	active := make([]ServerState, 0, len(group))
	for edge := maxEdge; remaining > 0 && edge >= 0; edge-- {
		active = append(active, byEdge[edge]...)
		floor := power.Watts(edge) * bucket
		final := false
		if floor <= slaFloor {
			floor = slaFloor
			final = true
			for e := edge - 1; e >= 0; e-- {
				active = append(active, byEdge[e]...)
			}
		}
		rooms := make([]room, 0, len(active))
		var capacity power.Watts
		for i, s := range active {
			head := s.Power - floor - cuts[s.ID]
			if head < 0 {
				head = 0
			}
			rooms = append(rooms, room{idx: i, head: head})
			capacity += head
		}
		take := remaining
		if take > capacity {
			take = capacity
		}
		if take > 0 {
			refDistributeEven(active, rooms, take, cuts)
			achieved += take
			remaining -= take
		}
		if final {
			break
		}
	}
	return cuts, achieved
}

func refDistributeEven(active []ServerState, rooms []room, take power.Watts, cuts map[string]power.Watts) {
	sort.Slice(rooms, func(i, j int) bool { return rooms[i].head < rooms[j].head })
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
		cuts[active[r.idx].ID] += give
		take -= give
	}
}

func refPlanChildCuts(u *Upper, needed power.Watts) map[string]power.Watts {
	cuts := map[string]power.Watts{}
	remaining := needed
	var offenders []ServerState
	for _, st := range u.list {
		if st.quota > 0 && st.reading > st.quota {
			offenders = append(offenders, ServerState{ID: st.id, Service: "offender", Power: st.reading - st.quota})
		}
	}
	if len(offenders) > 0 && remaining > 0 {
		got, achieved := refPlanGroup(offenders, remaining, u.cfg.OffenderBucket, 0)
		for id, c := range got {
			cuts[id] += c
		}
		remaining -= achieved
	}
	if remaining > power.Watts(1) {
		var all []ServerState
		for _, st := range u.list {
			all = append(all, ServerState{ID: st.id, Service: "child", Power: st.reading - cuts[st.id]})
		}
		sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
		var floor power.Watts
		for _, st := range u.list {
			if q := st.quota; q > 0 {
				floor += q / 2
			}
		}
		if len(u.list) > 0 {
			floor /= power.Watts(len(u.list))
		}
		got, _ := refPlanGroup(all, remaining, u.cfg.OffenderBucket, floor)
		for id, c := range got {
			cuts[id] += c
		}
	}
	return cuts
}

// sameWatts compares bit for bit.
func sameWatts(a, b power.Watts) bool {
	return math.Float64bits(float64(a)) == math.Float64bits(float64(b))
}

// randomWatts draws a power level that often ties with others: on a
// bucket edge, on one of a few shared values, or anywhere.
func randomWatts(rng *rand.Rand, lo, hi, edge float64) power.Watts {
	switch rng.Intn(4) {
	case 0:
		return power.Watts(math.Floor(lo/edge+rng.Float64()*(hi-lo)/edge) * edge) // a bucket edge
	case 1:
		return power.Watts(lo + float64(rng.Intn(4))*(hi-lo)/4) // a shared value
	default:
		return power.Watts(lo + rng.Float64()*(hi-lo))
	}
}

// TestComputePlanMatchesReference: on seeded random fleets — bucket ties,
// mixed priority groups, estimated servers sharing their service's mean,
// cuts past every SLA floor — the kept-scratch planner returns exactly the
// reference's plan: the same caps in the same order, and the same
// Achieved and Shortfall, bit for bit.
func TestComputePlanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	services := []string{"hadoop", "f4storage", "web", "newsfeed", "database", "cache", "network", "unknown"}
	var pl planner // one planner across cases, as a leaf keeps one across cycles
	for c := 0; c < 400; c++ {
		cfg := DefaultPriorityConfig()
		cfg.BucketSize = []power.Watts{0, 10, 20, 30}[rng.Intn(4)]
		n := 1 + rng.Intn(120)
		servers := make([]ServerState, n)
		seen := map[string]power.Watts{}
		var total power.Watts
		for i, id := range rng.Perm(n) { // input order is not ID order
			svc := services[rng.Intn(len(services))]
			s := ServerState{ID: fmt.Sprintf("s%03d", id), Service: svc, Power: randomWatts(rng, 60, 420, 20)}
			if p, ok := seen[svc]; ok && rng.Intn(5) == 0 {
				// Estimated: the leaf prices a failed pull at one power
				// for the whole service, so it ties exactly.
				s.Power = p
			}
			seen[svc] = s.Power
			servers[i] = s
			total += s.Power
		}
		cut := power.Watts(rng.Float64() * float64(total) * 0.8) // large cuts run into the SLA floors

		want := refComputePlan(servers, cut, cfg)
		got := ComputePlan(servers, cut, cfg)
		pl.start(n)
		for i := range servers {
			pl.add(i, cfg.priorityOf(servers[i].Service), servers[i].Power)
		}
		achieved, shortfall, capped := pl.plan(cut, cfg, func(i int) string { return servers[i].ID })
		kept := Plan{Achieved: achieved, Shortfall: shortfall}
		for _, m := range capped {
			kept.Caps = append(kept.Caps, PlannedCap{ID: servers[m.i].ID, Cap: m.power - m.cut, Cut: m.cut})
		}
		for _, p := range []struct {
			name string
			plan Plan
		}{{"ComputePlan", got}, {"kept planner", kept}} {
			if !sameWatts(p.plan.Achieved, want.Achieved) || !sameWatts(p.plan.Shortfall, want.Shortfall) || len(p.plan.Caps) != len(want.Caps) {
				t.Fatalf("case %d (%d servers, cut %v): %s achieved %v short %v with %d caps, reference %v, %v, %d",
					c, n, cut, p.name, p.plan.Achieved, p.plan.Shortfall, len(p.plan.Caps), want.Achieved, want.Shortfall, len(want.Caps))
			}
			for i, w := range want.Caps {
				g := p.plan.Caps[i]
				if g.ID != w.ID || !sameWatts(g.Cap, w.Cap) || !sameWatts(g.Cut, w.Cut) {
					t.Fatalf("case %d: %s cap %d is %+v, reference %+v", c, p.name, i, g, w)
				}
			}
		}
	}
}

// TestUpperPlanMatchesReference: the upper's index-based cut distribution
// gives every child the reference's cut, bit for bit, touches the same
// children, and sums them in the same (ID) order.
func TestUpperPlanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for c := 0; c < 300; c++ {
		n := 1 + rng.Intn(12)
		children := make([]ChildRef, n)
		for i, id := range rng.Perm(n) { // configuration order is not ID order
			children[i] = ChildRef{ID: fmt.Sprintf("row%02d", id)}
		}
		u := NewUpper(simclock.NewSimLoop(), UpperConfig{
			DeviceID: "sb", Limit: power.KW(400), DryRun: true,
			OffenderBucket: []power.Watts{100, 500, 5000}[rng.Intn(3)],
		}, children)
		var total power.Watts
		for _, st := range u.list {
			st.reading = randomWatts(rng, 20000, 90000, 5000)
			if rng.Intn(4) > 0 {
				st.quota = randomWatts(rng, 30000, 70000, 5000)
			}
			total += st.reading
		}
		needed := power.Watts(rng.Float64() * float64(total) * 0.6)

		want := refPlanChildCuts(u, needed)
		ids := make([]string, 0, len(want))
		for id := range want {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		var wantAchieved power.Watts
		for _, id := range ids {
			wantAchieved += want[id]
		}

		var p cyclePlan
		u.planCap(&p, needed)
		for i, st := range u.list {
			w, hit := want[st.id]
			if u.hit[i] != hit || (hit && !sameWatts(u.cut[i], w)) {
				t.Fatalf("case %d: child %s cut %v (hit %v), reference %v (hit %v)", c, st.id, u.cut[i], u.hit[i], w, hit)
			}
		}
		if p.rec.ServersPlanned != len(want) || !sameWatts(p.rec.Achieved, wantAchieved) {
			t.Fatalf("case %d: planned %d achieving %v, reference %d achieving %v",
				c, p.rec.ServersPlanned, p.rec.Achieved, len(want), wantAchieved)
		}
	}
}
