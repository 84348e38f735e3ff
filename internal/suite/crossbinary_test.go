package suite

import (
	"fmt"
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
)

// TestCrossBinaryHierarchy reproduces the multi-binary deployment: a suite
// assembly (leaf + SB controller) exposes its SB over real TCP, and an
// MSB controller in a separate process (own wall loop, TCP client) pulls
// it and imposes a contractual limit that propagates down to RAPL caps.
func TestCrossBinaryHierarchy(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time integration test")
	}

	// --- "Process" 1: the suite binary.
	suiteLoop := simclock.NewWallLoop()
	defer suiteLoop.Close()

	world := struct {
		ext     *rpc.Network
		servers []*serverHost
	}{ext: rpc.NewNetwork(suiteLoop, 0, 3)}

	const n = 6
	var agents []config.AgentEntry
	for i := 0; i < n; i++ {
		h := newHost(fmt.Sprintf("x%02d", i), 0.8)
		world.servers = append(world.servers, h)
		world.ext.Register("tcp/"+h.id, h.handler())
		agents = append(agents, config.AgentEntry{
			ID: h.id, Service: "web", Addr: "tcp/" + h.id,
		})
	}
	tick := simclock.NewTicker(suiteLoop, 100*time.Millisecond, func() {
		for _, h := range world.servers {
			h.srv.Tick(suiteLoop.Now())
		}
	})
	suiteLoop.Post(tick.Start)

	cfg := &config.Suite{
		Name: "cross",
		Controllers: []config.Controller{
			{Device: "rpp1", Level: "leaf", LimitWatts: 50000,
				PollSeconds: 0.3, Agents: agents},
			{Device: "sb1", Level: "upper", LimitWatts: 50000,
				PollSeconds: 0.9,
				Children:    []config.ChildEntry{{Device: "rpp1", QuotaWatts: 1500}}},
		},
	}
	asm, err := Build(suiteLoop, cfg, func(addr string) (rpc.Client, error) {
		return world.ext.Dial(addr), nil
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	suiteLoop.Post(asm.StartAll)
	defer suiteLoop.Call(asm.StopAll)

	// Expose the SB controller over TCP (the config "listen" path).
	sbSrv := rpc.NewTCPServer(rpc.LoopHandler(suiteLoop, asm.Controller("sb1").Handler()))
	sbAddr, err := sbSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sbSrv.Close()

	// --- "Process" 2: the MSB binary.
	msbLoop := simclock.NewWallLoop()
	defer msbLoop.Close()
	sbClient, err := rpc.DialTCP(sbAddr, msbLoop)
	if err != nil {
		t.Fatal(err)
	}
	defer sbClient.Close()
	// Fleet draws ~1.77 kW unconstrained; the MSB's 1.6 kW limit forces a
	// contract onto the SB, which must propagate to the leaf and servers.
	msb := core.NewUpper(msbLoop, core.UpperConfig{
		DeviceID: "msb1", Limit: 1600,
		PollInterval: 900 * time.Millisecond,
	}, []core.ChildRef{{ID: "sb1", Client: sbClient, Quota: 1500}})
	msbLoop.Post(msb.Start)
	defer msbLoop.Call(msb.Stop)

	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		time.Sleep(250 * time.Millisecond)
		var agg power.Watts
		var valid bool
		msbLoop.Call(func() { agg, valid = msb.LastAggregate() })
		capped := 0
		// Server state is confined to the suite loop; read it there.
		suiteLoop.Call(func() {
			for _, h := range world.servers {
				if _, ok := h.srv.Limit(); ok {
					capped++
				}
			}
		})
		if valid && agg > 0 && agg <= 1600 && capped > 0 {
			return // contract propagated across binaries down to RAPL
		}
	}
	var agg power.Watts
	msbLoop.Call(func() { agg, _ = msb.LastAggregate() })
	t.Fatalf("cross-binary contract did not propagate (msb agg=%v)", agg)
}

// serverHost bundles one simulated machine with its agent handler.
type serverHost struct {
	id  string
	srv *server.Server
	ag  *agent.Agent
}

func newHost(id string, load float64) *serverHost {
	srv := server.New(server.Config{
		ID: id, Service: "web",
		Model:  server.MustModel("haswell2015"),
		Source: server.LoadFunc(func(time.Duration) float64 { return load }),
	})
	srv.Tick(0)
	ag := agent.New(id, "web", "haswell2015", platform.NewMSR(srv, platform.Options{Seed: 9}))
	return &serverHost{id: id, srv: srv, ag: ag}
}

func (h *serverHost) handler() rpc.Handler { return h.ag.Handler() }
