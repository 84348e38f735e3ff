package agent

import (
	"math"
	"testing"
	"time"
	"unsafe"

	"dynamo/internal/platform"
	"dynamo/internal/power"
	"dynamo/internal/rpc"
	"dynamo/internal/server"
	"dynamo/internal/simclock"
	"dynamo/internal/wire"
)

// TestAgentSize keeps Agent in the 96-byte size class: a simulated fleet
// holds one per server, most of which lease nothing and report nothing, so
// what only some agents need lives behind Agent.x, and the reply it keeps
// is the four fields a reading carries.
func TestAgentSize(t *testing.T) {
	if s := unsafe.Sizeof(Agent{}); s > 96 {
		t.Fatalf("Agent is %d bytes, want <= 96", s)
	}
}

// TestConcurrentTCPReadsDecodeToProducedReadings: two connections pull one
// agent at once over TCP. The agent rewrites its one reply on every read,
// so LoopHandler has to encode each reply on the agent's loop before the
// next read can run; encoded later, off the loop, a reply could carry half
// of one reading and half of the next. Every reply a client decodes must be
// a reading the agent produced.
func TestConcurrentTCPReadsDecodeToProducedReadings(t *testing.T) {
	host := server.New(server.Config{
		ID: "srv1", Service: "web", Model: server.MustModel("haswell2015"),
		Source: server.LoadFunc(func(now time.Duration) float64 { return 0.3 + 0.5*math.Abs(math.Sin(now.Seconds()/7)) }),
	})
	// A fine sensor quantum, so that consecutive totals differ.
	plat := platform.NewMSR(host, platform.Options{Seed: 8, Quantum: 1e-9})
	a := New("srv1", "web", "", plat)
	h := a.Handler()

	// Loop-confined. Every read moves the host on and first sets a limit
	// of its own, far above the draw, so no two readings share a cap and
	// consecutive ones differ in their total too: a reply mixing two
	// readings decodes to a reading the agent never produced.
	var now time.Duration
	produced := map[ReadPowerResponse]bool{}
	agentLoop := simclock.NewWallLoop()
	defer agentLoop.Close()
	srv := rpc.NewTCPServer(rpc.LoopHandler(agentLoop, func(method string, body []byte) (wire.Message, error) {
		now += time.Second
		host.Tick(now)
		if err := plat.SetPowerLimit(power.Watts(1000 + now.Seconds())); err != nil {
			return nil, err
		}
		m, err := h(method, body)
		if err == nil {
			produced[*m.(*ReadPowerResponse)] = true
		}
		return m, err
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctrlLoop := simclock.NewWallLoop()
	defer ctrlLoop.Close()
	const conns, perConn = 2, 400
	var got []ReadPowerResponse // ctrlLoop only
	finished := make(chan error, conns)
	for i := 0; i < conns; i++ {
		cl, err := rpc.DialTCP(addr, ctrlLoop)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		left := perConn
		var done func([]byte, error)
		done = func(resp []byte, err error) {
			var r ReadPowerResponse
			if err := rpc.Decode(resp, err, &r); err != nil {
				finished <- err
				return
			}
			got = append(got, r)
			if left--; left == 0 {
				finished <- nil
				return
			}
			cl.Call(MethodReadPower, rpc.Empty, 5*time.Second, done)
		}
		ctrlLoop.Post(func() { cl.Call(MethodReadPower, rpc.Empty, 5*time.Second, done) })
	}
	for i := 0; i < conns; i++ {
		if err := <-finished; err != nil {
			t.Fatal(err)
		}
	}

	var distinct int
	unknown := -1
	agentLoop.Call(func() {
		distinct = len(produced)
		for i, r := range got {
			if !produced[r] {
				unknown = i
				break
			}
		}
	})
	if distinct != conns*perConn {
		t.Errorf("agent produced %d distinct readings for %d reads", distinct, conns*perConn)
	}
	if unknown >= 0 {
		t.Fatalf("reply %d decodes to %+v, which the agent never produced", unknown, got[unknown])
	}
}
