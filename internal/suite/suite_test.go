package suite

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dynamo/internal/agent"
	"dynamo/internal/config"
	"dynamo/internal/core"
	"dynamo/internal/platform"
	"dynamo/internal/power"
	"dynamo/internal/rpc"
	"dynamo/internal/server"
	"dynamo/internal/simclock"
	"dynamo/internal/topology"
)

// testWorld hosts agents on an "external" in-proc network standing in for
// TCP, plus the loop shared by everything.
type testWorld struct {
	loop    *simclock.SimLoop
	ext     *rpc.Network
	servers map[string]*server.Server
	order   []string
}

func newWorld(t *testing.T) *testWorld {
	t.Helper()
	loop := simclock.NewSimLoop()
	w := &testWorld{
		loop:    loop,
		ext:     rpc.NewNetwork(loop, 2*time.Millisecond, 7),
		servers: map[string]*server.Server{},
	}
	tick := simclock.NewTicker(loop, time.Second, func() {
		for _, id := range w.order {
			w.servers[id].Tick(loop.Now())
		}
	})
	tick.Start()
	return w
}

func (w *testWorld) addAgent(id string, load float64) *agent.Agent {
	srv := server.New(server.Config{
		ID: id, Service: "web",
		Model:  server.MustModel("haswell2015"),
		Source: server.LoadFunc(func(time.Duration) float64 { return load }),
	})
	srv.Tick(0)
	w.servers[id] = srv
	w.order = append(w.order, id)
	ag := agent.New(id, "web", "haswell2015", platform.NewMSR(srv, platform.Options{Seed: 1}))
	w.ext.Register("tcp/"+id, ag.Handler())
	return ag
}

func (w *testWorld) dialer() Dialer {
	return func(addr string) (rpc.Client, error) { return w.ext.Dial(addr), nil }
}

func suiteDoc(nPerLeaf int) *config.Suite {
	mk := func(leaf string, start int) []config.AgentEntry {
		var out []config.AgentEntry
		for i := 0; i < nPerLeaf; i++ {
			id := fmt.Sprintf("%s-srv%d", leaf, start+i)
			out = append(out, config.AgentEntry{
				ID: id, Service: "web", Addr: "tcp/" + id,
			})
		}
		return out
	}
	return &config.Suite{
		Name: "suite-test",
		Controllers: []config.Controller{
			{Device: "rpp1", Level: "leaf", LimitWatts: 200000, QuotaWatts: 1400, Agents: mk("rpp1", 0)},
			{Device: "rpp2", Level: "leaf", LimitWatts: 200000, QuotaWatts: 1400, Agents: mk("rpp2", 0)},
			{Device: "sb1", Level: "upper", LimitWatts: 2800,
				Children: []config.ChildEntry{
					{Device: "rpp1", QuotaWatts: 1400},
					{Device: "rpp2", QuotaWatts: 1400},
				}},
		},
	}
}

func TestBuildAndRunSuite(t *testing.T) {
	w := newWorld(t)
	cfg := suiteDoc(5)
	for _, c := range cfg.Controllers {
		for _, a := range c.Agents {
			w.addAgent(a.ID, 0.8) // ~295 W each; 10 servers ≈ 2950 W > 2800 SB limit
		}
	}
	var alerts []core.Alert
	asm, err := Build(w.loop, cfg, w.dialer(), func(a core.Alert) { alerts = append(alerts, a) }, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if asm.NumControllers() != 3 {
		t.Fatalf("controllers = %d", asm.NumControllers())
	}
	asm.StartAll()
	w.loop.RunUntil(2 * time.Minute)

	// The SB controller aggregates through its in-process siblings and,
	// being over its 2.8 kW limit, contracts the offenders.
	agg, valid := asm.Uppers["sb1"].LastAggregate()
	if !valid || agg <= 0 {
		t.Fatalf("sb agg = %v/%v", agg, valid)
	}
	if agg > power.Watts(2800) {
		t.Errorf("sb agg %v above limit after control", agg)
	}
	capped := 0
	for _, id := range w.order {
		if _, ok := w.servers[id].Limit(); ok {
			capped++
		}
	}
	if capped == 0 {
		t.Error("no servers capped through the consolidated suite")
	}
	asm.StopAll()
	w.loop.RunFor(10 * time.Second) // drain any in-flight cycle
	cycles := asm.Leaves["rpp1"].Cycles()
	w.loop.RunUntil(5 * time.Minute)
	if asm.Leaves["rpp1"].Cycles() != cycles {
		t.Error("controllers kept running after StopAll")
	}
}

func TestBuildRejectsInvalidConfig(t *testing.T) {
	w := newWorld(t)
	bad := &config.Suite{Name: "x"}
	if _, err := Build(w.loop, bad, w.dialer(), nil, nil, Options{}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestBuildDialerErrorPropagates(t *testing.T) {
	w := newWorld(t)
	cfg := suiteDoc(1)
	failing := func(addr string) (rpc.Client, error) {
		return nil, fmt.Errorf("no route to %s", addr)
	}
	if _, err := Build(w.loop, cfg, failing, nil, nil, Options{}); err == nil {
		t.Fatal("dialer error swallowed")
	}
}

func TestControllerLookup(t *testing.T) {
	w := newWorld(t)
	cfg := suiteDoc(1)
	for _, c := range cfg.Controllers {
		for _, a := range c.Agents {
			w.addAgent(a.ID, 0.5)
		}
	}
	asm, err := Build(w.loop, cfg, w.dialer(), nil, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if asm.Controller("rpp1") == nil || asm.Controller("sb1") == nil {
		t.Error("lookup failed")
	}
	if asm.Controller("ghost") != nil {
		t.Error("unknown device should be nil")
	}
}

// TestBuildRackLeaves assembles a tree whose leaves protect racks rather
// than RPPs (rack power is over-provisioned in the paper's deployment, so
// it has no rack controllers; other deployments may): every RPP becomes an
// upper over its racks.
func TestBuildRackLeaves(t *testing.T) {
	spec := topology.DefaultSpec()
	spec.MSBs, spec.SBsPerMSB, spec.RPPsPerSB = 1, 2, 2
	spec.RacksPerRPP, spec.ServersPerRack = 2, 5
	topo := spec.MustBuild()
	cfg := &config.Suite{Name: "racks"}
	for _, rack := range topo.OfKind(topology.KindRack) {
		c := config.Controller{Device: string(rack.ID), Level: "leaf", LimitWatts: float64(rack.Rating)}
		for _, srv := range rack.Servers() {
			c.Agents = append(c.Agents, config.AgentEntry{ID: string(srv.ID), Service: srv.Service, Addr: "tcp/" + string(srv.ID)})
		}
		cfg.Controllers = append(cfg.Controllers, c)
	}
	for _, k := range []topology.Kind{topology.KindRPP, topology.KindSB, topology.KindMSB} {
		for _, n := range topo.OfKind(k) {
			c := config.Controller{Device: string(n.ID), Level: "upper", LimitWatts: float64(n.Rating)}
			for _, ch := range n.Children {
				c.Children = append(c.Children, config.ChildEntry{Device: string(ch.ID), QuotaWatts: float64(ch.Quota)})
			}
			cfg.Controllers = append(cfg.Controllers, c)
		}
	}
	w := newWorld(t)
	asm, err := Build(w.loop, cfg, w.dialer(), nil, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(asm.Leaves); got != 8 { // one per rack
		t.Errorf("leaves = %d, want 8", got)
	}
	if got := len(asm.Uppers); got != 7 { // 4 RPP + 2 SB + 1 MSB
		t.Errorf("uppers = %d, want 7", got)
	}
	if asm.Leaf(topo.OfKind(topology.KindRack)[0].ID) == nil || asm.Upper(topo.OfKind(topology.KindRPP)[0].ID) == nil {
		t.Error("rack leaf or RPP upper missing")
	}
}

// trackingClient wraps a client and records Close, so tests can assert
// the leak-free error path.
type trackingClient struct {
	rpc.Client
	mu     *sync.Mutex
	closed *int
}

func (c trackingClient) Close() error {
	c.mu.Lock()
	*c.closed++
	c.mu.Unlock()
	return c.Client.Close()
}

// TestBuildParallelDialSlowAndFailingChild drives Build through a dialer
// where every dial is slow and one fails: the pool must dial children
// concurrently (wall-clock far below the serial sum), surface the failure,
// and close every connection that did succeed.
func TestBuildParallelDialSlowAndFailingChild(t *testing.T) {
	w := newWorld(t)
	cfg := suiteDoc(8) // 16 agents across two leaves
	for _, c := range cfg.Controllers {
		for _, a := range c.Agents {
			w.addAgent(a.ID, 0.5)
		}
	}
	const dialDelay = 30 * time.Millisecond

	var mu sync.Mutex
	dialedOK, closed := 0, 0
	failAddr := cfg.Controllers[1].Agents[3].Addr
	slow := func(fail bool) Dialer {
		return func(addr string) (rpc.Client, error) {
			time.Sleep(dialDelay)
			if fail && addr == failAddr {
				return nil, fmt.Errorf("connection refused")
			}
			mu.Lock()
			dialedOK++
			mu.Unlock()
			return trackingClient{Client: w.ext.Dial(addr), mu: &mu, closed: &closed}, nil
		}
	}

	// Failure path: the error propagates with the config context and every
	// successful dial is closed.
	if _, err := Build(w.loop, cfg, slow(true), nil, nil, Options{}); err == nil {
		t.Fatal("expected dial failure to propagate")
	} else if !strings.Contains(err.Error(), failAddr) {
		t.Fatalf("error %q does not name failing address %s", err, failAddr)
	}
	mu.Lock()
	if closed != dialedOK {
		t.Fatalf("leak: %d dials succeeded, %d closed", dialedOK, closed)
	}
	mu.Unlock()

	// Success path: 16 slow dials through the pool must take far less than
	// the 480 ms serial sum.
	start := time.Now()
	a, err := Build(w.loop, cfg, slow(false), nil, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 8*dialDelay {
		t.Errorf("parallel dial took %v, serial would be %v", elapsed, 16*dialDelay)
	}
	if a.NumControllers() != 3 {
		t.Fatalf("controllers = %d, want 3", a.NumControllers())
	}
}
