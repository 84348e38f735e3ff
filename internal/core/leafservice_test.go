package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"dynamo/internal/agent"
	"dynamo/internal/platform"
	"dynamo/internal/power"
	"dynamo/internal/simclock"
	"dynamo/internal/wire"
)

// mapAggregate is Leaf.aggregate as it was when its per-service figures
// were string-keyed maps: sums and counts made each cycle, and the
// breakdown kept in lastService. It reads and writes the same agent state,
// so a leaf driven through it is the reference for one driven through
// aggregate.
func mapAggregate(l *Leaf, p *cyclePlan, lastService map[string]power.Watts) (power.Watts, bool) {
	l.caps = l.caps[:0]
	l.restarts = l.restarts[:0]
	l.quarantinedNow, l.quarantinedNew, l.readmitted = 0, 0, 0

	for _, st := range l.list {
		if !st.rawValid {
			continue
		}
		r := &l.msg
		r.Service = st.service
		l.dec.Reset(st.raw)
		if derr := r.UnmarshalWire(&l.dec); derr == nil {
			st.ok = true
			st.reading = r.TotalWatts
			st.lastPower = r.TotalWatts
			st.everSeen = true
			st.service = r.Service
			st.capped = r.Capped
		}
	}

	if l.cfg.QuarantineThreshold > 0 {
		for _, st := range l.list {
			if st.ok {
				st.consecFails = 0
				if st.quarantined {
					st.quarantined = false
					st.quarCycles = 0
					l.readmitted++
					p.alert(Alert{Kind: KindReadmitted, Peer: st.id})
				}
				continue
			}
			if !st.quarantined {
				st.consecFails++
				if int(st.consecFails) >= l.cfg.QuarantineThreshold {
					st.quarantined = true
					st.quarCycles = 0
					st.consecFails = 0
					l.quarantinedNew++
					p.alert(Alert{Kind: KindQuarantined, Peer: st.id, Count: l.cfg.QuarantineThreshold})
				}
			}
			if st.quarantined && l.restart != nil && st.quarCycles%restartEvery == 0 {
				l.restarts = append(l.restarts, st)
			}
		}
	}

	var serviceSum = map[string]float64{}
	var serviceCnt = map[string]int{}
	failures := 0
	for _, st := range l.list {
		switch {
		case st.ok:
			serviceSum[st.service] += st.reading
			serviceCnt[st.service]++
		case st.quarantined:
			l.quarantinedNow++
		default:
			failures++
		}
	}
	total := float64(l.cfg.NonServerDraw)
	clear(lastService)
	for _, st := range l.list {
		if !st.ok {
			if cnt := serviceCnt[st.service]; cnt > 0 && st.service != "" {
				st.reading = serviceSum[st.service] / float64(cnt)
			} else if st.everSeen {
				st.reading = st.lastPower
			} else {
				st.reading = 0
			}
		}
		total += st.reading
		lastService[st.service] += power.Watts(st.reading)
	}

	p.rec.Failures = failures
	failFrac := 0.0
	if len(l.list) > 0 {
		failFrac = float64(failures) / float64(len(l.list))
	}
	if failFrac > maxFailureFrac {
		p.alert(Alert{Kind: KindPullsFailed, Count: failures, Of: len(l.list)})
		return 0, false
	}
	return power.Watts(total), true
}

// observe runs one observe phase of l the way the cycle kernel does: it
// resets the pulls, lets the leaf select them, and hands every pulled
// agent with a reply its encoded bytes. A nil reply is a failed pull.
func observe(l *Leaf, replies [][]byte, aggregate func(*cyclePlan) (power.Watts, bool)) (power.Watts, bool, *cyclePlan) {
	for _, st := range l.list {
		st.rawValid, st.ok, st.skip, st.probe = false, false, false, false
	}
	l.selectPulls()
	for i, st := range l.list {
		if !st.skip && replies[i] != nil {
			st.rawValid, st.raw = true, append(st.raw[:0], replies[i]...)
		}
	}
	p := &cyclePlan{}
	agg, valid := aggregate(p)
	return agg, valid, p
}

func reply(service string, watts float64) []byte {
	return wire.Marshal(&agent.ReadPowerResponse{TotalWatts: watts, Service: service})
}

// TestLeafAggregateMatchesMapReference drives randomized fleets — failed
// pulls, undecodable replies, quarantine with restarts, agents whose reply
// names another service — through aggregate and through the map-based
// reference, and requires every figure bit for bit: totals, readings and
// estimates, the breakdown, the circuit-breaker outcomes and alerts, and
// the priority planCap reads for each agent.
func TestLeafAggregateMatchesMapReference(t *testing.T) {
	pool := []string{"web", "cache", "hadoop", "newsfeed", "f4storage", "", "batch-x"}
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		cfg := LeafConfig{
			DeviceID: "rpp", Limit: power.KW(100), Alerts: func(Alert) {},
			QuarantineThreshold: rng.Intn(4),
			NonServerDraw:       power.Watts(rng.Intn(3) * 250),
		}
		truth := make([]string, n) // the service each agent has now
		refs := make([]AgentRef, n)
		for i := range refs {
			truth[i] = pool[rng.Intn(len(pool))]
			refs[i] = AgentRef{ServerID: fmt.Sprintf("s%02d", i), Service: truth[i]}
		}
		got := NewLeaf(simclock.NewSimLoop(), cfg, refs)
		want := NewLeaf(simclock.NewSimLoop(), cfg, refs)
		if rng.Intn(2) == 0 {
			got.SetRestart(func(string) {})
			want.SetRestart(func(string) {})
		}
		lastService := map[string]power.Watts{}
		for cycle := 0; cycle < 40; cycle++ {
			failP := []float64{0, 0.05, 0.15, 0.4, 0.9}[rng.Intn(5)]
			replies := make([][]byte, n)
			for i := range replies {
				if rng.Float64() < 0.03 {
					truth[i] = pool[rng.Intn(len(pool))]
				}
				switch u := rng.Float64(); {
				case u < failP:
				case u < failP+0.02:
					replies[i] = []byte{0xff} // does not decode
				default:
					replies[i] = reply(truth[i], float64(rng.Intn(4000))/7)
				}
			}
			gAgg, gValid, gp := observe(got, replies, got.aggregate)
			wAgg, wValid, wp := observe(want, replies, func(p *cyclePlan) (power.Watts, bool) { return mapAggregate(want, p, lastService) })
			where := fmt.Sprintf("seed %d cycle %d", seed, cycle)
			if math.Float64bits(float64(gAgg)) != math.Float64bits(float64(wAgg)) || gValid != wValid {
				t.Fatalf("%s: aggregate %v valid=%v, reference %v valid=%v", where, gAgg, gValid, wAgg, wValid)
			}
			if gp.rec.Failures != wp.rec.Failures || fmt.Sprint(gp.alerts) != fmt.Sprint(wp.alerts) {
				t.Fatalf("%s: failures %d alerts %v, reference %d %v", where, gp.rec.Failures, gp.alerts, wp.rec.Failures, wp.alerts)
			}
			if g, w := [3]int{got.quarantinedNow, got.quarantinedNew, got.readmitted}, [3]int{want.quarantinedNow, want.quarantinedNew, want.readmitted}; g != w {
				t.Fatalf("%s: quarantine now/new/readmitted %v, reference %v", where, g, w)
			}
			if len(got.restarts) != len(want.restarts) {
				t.Fatalf("%s: %d restarts due, reference %d", where, len(got.restarts), len(want.restarts))
			}
			for i, st := range got.list {
				ref := want.list[i]
				if math.Float64bits(st.reading) != math.Float64bits(ref.reading) || st.service != ref.service ||
					st.quarantined != ref.quarantined || st.consecFails != ref.consecFails {
					t.Fatalf("%s agent %s: reading %v service %q quarantined %v fails %d, reference %v %q %v %d", where, st.id,
						st.reading, st.service, st.quarantined, st.consecFails, ref.reading, ref.service, ref.quarantined, ref.consecFails)
				}
				if got.services[st.svc].name != st.service || got.services[st.svc].priority != got.cfg.Priorities.priorityOf(st.service) {
					t.Fatalf("%s agent %s: indexed as %+v, has service %q", where, st.id, got.services[st.svc], st.service)
				}
			}
			bd := got.ServiceBreakdown()
			if len(bd) != len(lastService) {
				t.Fatalf("%s: breakdown %v, reference %v", where, bd, lastService)
			}
			for svc, w := range lastService {
				if g, ok := bd[svc]; !ok || math.Float64bits(float64(g)) != math.Float64bits(float64(w)) {
					t.Fatalf("%s: breakdown[%q] = %v (present %v), reference %v", where, svc, g, ok, w)
				}
			}
		}
	}
}

// TestLeafServiceChangeMidRun: a reply that names another service moves
// its agent there. The breakdown gains the new service at once and drops
// the old one when no agent has it any more, and a failed pull is
// estimated from responders of the agent's service as it now stands.
func TestLeafServiceChangeMidRun(t *testing.T) {
	refs := []AgentRef{
		{ServerID: "w1", Service: "web"}, {ServerID: "w2", Service: "web"},
		{ServerID: "c1", Service: "cache"}, {ServerID: "c2", Service: "cache"},
		{ServerID: "n1", Service: "newsfeed"}, // five agents: one failed pull keeps the aggregate valid
	}
	l := NewLeaf(simclock.NewSimLoop(), LeafConfig{DeviceID: "rpp", Limit: power.KW(10), Alerts: func(Alert) {}}, refs)
	breakdown := func() string {
		bd := l.ServiceBreakdown()
		keys := make([]string, 0, len(bd))
		for k := range bd {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		s := ""
		for _, k := range keys {
			s += fmt.Sprintf("%s=%v ", k, float64(bd[k]))
		}
		return s
	}
	if got := breakdown(); got != "" {
		t.Fatalf("breakdown before any cycle = %q, want empty", got)
	}
	step := func(replies ...[]byte) {
		t.Helper()
		if _, valid, _ := observe(l, replies, l.aggregate); !valid {
			t.Fatal("aggregation invalid")
		}
	}

	news := reply("newsfeed", 10)
	step(reply("web", 100), reply("web", 200), reply("cache", 300), reply("cache", 500), news)
	if got, want := breakdown(), "cache=800 newsfeed=10 web=300 "; got != want {
		t.Fatalf("breakdown %q, want %q", got, want)
	}
	// c2 now serves web; c1's pull fails. No cache agent answered, so c1
	// falls back to its last reading; it still has cache.
	step(reply("web", 100), reply("web", 200), nil, reply("web", 600), news)
	if got, want := breakdown(), "cache=300 newsfeed=10 web=900 "; got != want {
		t.Fatalf("after c2 moved to web: breakdown %q, want %q", got, want)
	}
	// w1 fails: estimated from web's responders, c2 included.
	step(nil, reply("web", 200), reply("cache", 300), reply("web", 400), news)
	if r := l.list[0].reading; r != 300 {
		t.Fatalf("w1 estimated at %v, want 300 (the mean of web responders w2 and c2)", r)
	}
	// c1 moves to hadoop: nobody has cache any more.
	step(reply("web", 100), reply("web", 200), reply("hadoop", 50), reply("web", 400), news)
	if got, want := breakdown(), "hadoop=50 newsfeed=10 web=700 "; got != want {
		t.Fatalf("after c1 moved to hadoop: breakdown %q, want %q", got, want)
	}
	if sw := l.Status(0).ServiceWatts; len(sw) != 3 || sw["hadoop"] != 50 || sw["newsfeed"] != 10 || sw["web"] != 700 {
		t.Fatalf("Status ServiceWatts = %v, want hadoop, newsfeed and web only", sw)
	}
	if prio := l.services[l.list[2].svc].priority; prio != DefaultPriorityConfig().priorityOf("hadoop") {
		t.Fatalf("c1 plans at priority %d, want hadoop's", prio)
	}
}

// TestLeafServiceChangeEndToEnd: an agent process restarted as another
// service moves in the breakdown once its next pull answers.
func TestLeafServiceChangeEndToEnd(t *testing.T) {
	f := newFixture(t)
	refs := f.addFleet(2, "web", 0.6)
	leaf := NewLeaf(f.loop, LeafConfig{DeviceID: "rpp1", Limit: power.KW(50)}, refs)
	leaf.Start()
	has := func(services ...string) {
		t.Helper()
		bd := leaf.ServiceBreakdown()
		if len(bd) != len(services) {
			t.Fatalf("at %v breakdown %v, want %v", f.loop.Now(), bd, services)
		}
		for _, s := range services {
			if bd[s] <= 0 {
				t.Fatalf("at %v breakdown %v, want %v", f.loop.Now(), bd, services)
			}
		}
	}
	recast := func(id, service string) {
		ag := agent.New(id, service, "haswell2015", platform.NewMSR(f.servers[id], platform.Options{Seed: 5}))
		f.net.Register(AgentAddr(id), ag.Handler())
	}
	f.loop.RunUntil(4 * time.Second)
	has("web")
	recast("web-000", "cache")
	f.loop.RunUntil(7 * time.Second)
	has("web", "cache")
	recast("web-001", "cache")
	f.loop.RunUntil(10 * time.Second)
	has("cache")
}
