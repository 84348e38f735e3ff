// Package integration exercises the real-network deployment path: agents
// served over TCP (as dynamo-agentd does), a leaf controller pulling them
// over TCP on a wall-clock loop (as dynamo-suited does), and a parent
// reaching the controller through its TCP handler.
package integration

import (
	"fmt"
	"testing"
	"time"

	"dynamo/internal/agent"
	"dynamo/internal/core"
	"dynamo/internal/platform"
	"dynamo/internal/power"
	"dynamo/internal/rpc"
	"dynamo/internal/server"
	"dynamo/internal/simclock"
	"dynamo/internal/wire"
)

// tcpAgent bundles a simulated host, its agent, and a TCP server.
type tcpAgent struct {
	host *server.Server
	srv  *rpc.TCPServer
	addr string
}

func startAgent(t *testing.T, loop *simclock.WallLoop, id string, load float64) *tcpAgent {
	t.Helper()
	host := server.New(server.Config{
		ID: id, Service: "web",
		Model:  server.MustModel("haswell2015"),
		Source: server.LoadFunc(func(time.Duration) float64 { return load }),
	})
	host.Tick(0)
	ticker := simclock.NewTicker(loop, 100*time.Millisecond, func() { host.Tick(loop.Now()) })
	loop.Post(ticker.Start)
	ag := agent.New(id, "web", "haswell2015", platform.NewMSR(host, platform.Options{Seed: 1}))
	srv := rpc.NewTCPServer(rpc.LoopHandler(loop, ag.Handler()))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return &tcpAgent{host: host, srv: srv, addr: addr}
}

func TestTCPEndToEndCapping(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time integration test")
	}
	loop := simclock.NewWallLoop()
	defer loop.Close()

	const n = 4
	var refs []core.AgentRef
	var hosts []*server.Server
	for i := 0; i < n; i++ {
		a := startAgent(t, loop, fmt.Sprintf("srv%02d", i), 0.8)
		cl, err := rpc.DialTCP(a.addr, loop)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		refs = append(refs, core.AgentRef{
			ServerID: a.host.ID(), Service: "web", Generation: "haswell2015", Client: cl,
		})
		hosts = append(hosts, a.host)
	}

	// Four servers at ~295 W ≈ 1180 W; a 1.1 kW limit forces capping.
	leaf := core.NewLeaf(loop, core.LeafConfig{
		DeviceID:     "rpp-tcp",
		Limit:        power.Watts(1100),
		PollInterval: 300 * time.Millisecond, // accelerate the 3 s cycle
		PullTimeout:  200 * time.Millisecond,
	}, refs)
	loop.Post(leaf.Start)
	defer loop.Call(leaf.Stop)

	// Serve the controller protocol over TCP for a "parent".
	ctrlSrv := rpc.NewTCPServer(rpc.LoopHandler(loop, leaf.Handler()))
	ctrlAddr, err := ctrlSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctrlSrv.Close()

	deadline := time.Now().Add(20 * time.Second)
	settled := false
	for time.Now().Before(deadline) {
		time.Sleep(300 * time.Millisecond)
		var agg power.Watts
		var valid bool
		var capped int
		loop.Call(func() {
			agg, valid = leaf.LastAggregate()
			capped = leaf.CappedCount()
		})
		if valid && agg > 0 && agg <= power.Watts(1100*0.99)+1 && capped > 0 {
			settled = true
			break
		}
	}
	if !settled {
		var agg power.Watts
		loop.Call(func() { agg, _ = leaf.LastAggregate() })
		t.Fatalf("controller did not settle under the limit over TCP (agg=%v)", agg)
	}

	// Hosts must actually hold RAPL limits.
	anyLimited := false
	for _, h := range hosts {
		if _, ok := h.Limit(); ok {
			anyLimited = true
		}
	}
	if !anyLimited {
		t.Error("no host holds a RAPL limit")
	}

	// A parent can read the controller over TCP and impose a contract.
	parentLoop := simclock.NewWallLoop()
	defer parentLoop.Close()
	pc, err := rpc.DialTCP(ctrlAddr, parentLoop)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()

	read := make(chan core.CtrlReadPowerResponse, 1)
	parentLoop.Post(func() {
		pc.Call(core.MethodCtrlReadPower, rpc.Empty, 2*time.Second, func(resp []byte, err error) {
			var r core.CtrlReadPowerResponse
			if err == nil {
				_ = wire.Unmarshal(resp, &r)
			}
			read <- r
		})
	})
	select {
	case r := <-read:
		if !r.Valid || r.AggWatts <= 0 {
			t.Errorf("parent read = %+v", r)
		}
		if r.LimitWatts != 1100 {
			t.Errorf("limit over wire = %v", r.LimitWatts)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parent read timed out")
	}

	acked := make(chan bool, 1)
	parentLoop.Post(func() {
		pc.Call(core.MethodCtrlSetContract, &core.SetContractRequest{LimitWatts: 1000},
			2*time.Second, func(resp []byte, err error) {
				var a core.AckResponse
				acked <- rpc.Decode(resp, err, &a) == nil && a.OK
			})
	})
	select {
	case ok := <-acked:
		if !ok {
			t.Fatal("contract not acked over TCP")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("contract timed out")
	}
	var eff power.Watts
	loop.Call(func() { eff = leaf.EffectiveLimit() })
	if eff != 1000 {
		t.Errorf("effective limit = %v, want contractual 1000", eff)
	}
}

func TestTCPAgentDirectProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time integration test")
	}
	loop := simclock.NewWallLoop()
	defer loop.Close()
	a := startAgent(t, loop, "solo", 0.6)
	cl, err := rpc.DialTCP(a.addr, loop)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	time.Sleep(500 * time.Millisecond) // let the host tick

	call := func(method string, req wire.Message, out wire.Message) error {
		done := make(chan error, 1)
		loop.Post(func() {
			cl.Call(method, req, 2*time.Second, func(resp []byte, err error) {
				if err != nil {
					done <- err
					return
				}
				done <- wire.Unmarshal(resp, out)
			})
		})
		select {
		case err := <-done:
			return err
		case <-time.After(5 * time.Second):
			return fmt.Errorf("timeout")
		}
	}

	var read agent.ReadPowerResponse
	if err := call(agent.MethodReadPower, rpc.Empty, &read); err != nil {
		t.Fatal(err)
	}
	if read.TotalWatts < 100 || read.Service != "web" {
		t.Errorf("read = %+v", read)
	}
	var ack agent.CapResponse
	if err := call(agent.MethodSetCap, &agent.SetCapRequest{LimitWatts: 200}, &ack); err != nil || !ack.OK {
		t.Fatalf("cap: %v %+v", err, ack)
	}
	if lim, ok := a.host.Limit(); !ok || lim != 200 {
		t.Error("cap not applied to host")
	}
	if err := call(agent.MethodClearCap, rpc.Empty, &ack); err != nil || !ack.OK {
		t.Fatalf("uncap: %v %+v", err, ack)
	}
}
