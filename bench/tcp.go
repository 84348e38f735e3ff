package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"dynamo/internal/agent"
	"dynamo/internal/platform"
	"dynamo/internal/rpc"
	"dynamo/internal/server"
	"dynamo/internal/simclock"
	"dynamo/internal/wire"
)

// The tcp_pull round: a fixed number of calls, so every round does the
// same work. Warm-up calls are part of set-up.
const (
	// tcpConns is the number of agents, each behind its own connection. The
	// benchmark runs on one P (see run), so more would only queue.
	tcpConns       = 2
	tcpRoundCalls  = 120000
	tcpWarmCalls   = 20000
	tcpCallTimeout = 2 * time.Second
	tcpLeaseTTL    = 15 * time.Second
	// Every tcpCapEvery-th call on a connection is a cap command,
	// alternately SetCap (leased) and ClearCap; the rest are ReadPower.
	tcpCapEvery = 10
)

// smallHeapGCPercent is GOGC during a tcp_pull round. Two agents keep
// ~2.5 MB live, under the collector's 4 MB floor, so at the default 100 it
// runs ~80 cycles a second, and how many depends on when the runtime reaps
// the stopped per-call timers: the p99 round trip was 125 us in a process's
// first round, 70 us in its fifth, and 70 or 90 us from run to run. At 1600
// the floor is 64 MB, a cycle comes about twice a second, and the tail is
// the transport's. Allocation stays gated by allocs_per_work. The probes
// run under it too, so that they read the same after tcp_pull's small heap
// as after a simulator's large one.
const smallHeapGCPercent = 1600

// tcpCost is what one tcp_pull round measured.
type tcpCost struct {
	hostCost // stepUS holds one sample per call, issue -> completion callback
	conns    int
	calls    int
	failed   int // errored, timed out, undecodable, or wrong answer
	late     int // of failed: timed out
}

// tcpPeer is one agent daemon's worth of state plus the controller-side
// connection to it.
type tcpPeer struct {
	srv    *rpc.TCPServer
	client *rpc.TCPClient

	// Closed-loop driver state, confined to the controller loop.
	limit    float64
	capReq   agent.SetCapRequest
	capped   bool // the agent should currently hold capReq's limit
	lastCap  bool // the call in flight is a cap command
	seq      int
	left     int
	issuedAt time.Time
	onDone   func([]byte, error)
	cost     *tcpCost
	record   bool
	finished func()
}

// runTCPRound stands up conns agents behind real loopback TCP servers on
// one wall loop and conns clients on a second (the two daemons' two loops),
// warms the connections, then drives a closed loop with one call
// outstanding per connection. sm is nil on an untraced round.
func runTCPRound(seed int64, sm *seams) (cost tcpCost, err error) {
	cost.conns = tcpConns
	defer debug.SetGCPercent(debug.SetGCPercent(smallHeapGCPercent))
	runtime.GC()
	t0 := time.Now()

	agentLoop := simclock.NewWallLoop()
	defer agentLoop.Close()
	ctrlLoop := simclock.NewWallLoop()
	defer ctrlLoop.Close()

	rng := rand.New(rand.NewSource(seed))
	var peers []*tcpPeer
	defer func() {
		for _, p := range peers {
			if p.client != nil {
				p.client.Close()
			}
			p.srv.Close()
		}
	}()
	for i := 0; i < cost.conns; i++ {
		load := 0.45 + 0.4*rng.Float64()
		id := fmt.Sprintf("tcp%02d", i)
		host := server.New(server.Config{
			ID: id, Service: "web",
			Model:  server.MustModel("haswell2015"),
			Source: server.LoadFunc(func(time.Duration) float64 { return load }),
		})
		host.Tick(0)
		ag := agent.New(id, "web", "haswell2015", platform.NewMSR(host, platform.Options{Seed: rng.Int63()}))
		ag.EnableLease(agentLoop, tcpLeaseTTL, nil)
		h := ag.Handler()
		if sm != nil {
			h = sm.agent.timed(h)
		}
		p := &tcpPeer{srv: rpc.NewTCPServer(rpc.LoopHandler(agentLoop, h)), cost: &cost}
		peers = append(peers, p)
		addr, err := p.srv.Listen("127.0.0.1:0")
		if err != nil {
			return cost, fmt.Errorf("tcp_pull: listen: %w", err)
		}
		if p.client, err = rpc.DialTCP(addr, ctrlLoop); err != nil {
			return cost, fmt.Errorf("tcp_pull: dial %s: %w", addr, err)
		}
		p.limit = 180 + 40*rng.Float64()
		p.capReq = agent.SetCapRequest{LimitWatts: p.limit, LeaseNanos: uint64(tcpLeaseTTL)}
		p.onDone = p.done
	}

	drive(ctrlLoop, peers, tcpWarmCalls/cost.conns, false)
	if sm != nil {
		agentLoop.Call(sm.agent.reset)
	}
	setup := time.Since(t0)
	cost.setupS = setup.Seconds()

	per := tcpRoundCalls / cost.conns
	cost.stepUS = make([]float64, 0, per*cost.conns)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t1 := time.Now()
	drive(ctrlLoop, peers, per, true)
	cost.wallS = time.Since(t1).Seconds()
	runtime.ReadMemStats(&m1)
	cost.mallocs = m1.Mallocs - m0.Mallocs
	cost.bytes = m1.TotalAlloc - m0.TotalAlloc
	cost.calls = per * cost.conns

	runtime.GC()
	runtime.ReadMemStats(&m1)
	cost.heapMB = float64(m1.HeapAlloc) / (1 << 20)

	if sm != nil {
		round := sm.log.add(0, "traced", t0, time.Since(t0), 0)
		sm.log.add(round, "setup", t0, setup, 0)
		timed := sm.log.add(round, "timed", t1, time.Since(t1), uint64(cost.calls))
		// The agent loop is idle once every reply is in; Call orders this
		// read after the handlers' writes.
		agentLoop.Call(func() { sm.log.add(timed, "agent", t1, sm.agent.busy, sm.agent.count) })
	}
	return cost, nil
}

// drive issues n calls on every peer, one outstanding per connection, and
// returns when all have completed. Every call carries a timeout, so it
// cannot hang.
func drive(loop *simclock.WallLoop, peers []*tcpPeer, n int, record bool) {
	all := make(chan struct{})
	remaining := len(peers)
	loop.Post(func() {
		for _, p := range peers {
			p.left, p.record = n, record
			p.finished = func() {
				if remaining--; remaining == 0 {
					close(all)
				}
			}
			p.issue()
		}
	})
	<-all
}

func (p *tcpPeer) issue() {
	p.seq++
	p.lastCap = p.seq%tcpCapEvery == 0
	method, req := agent.MethodReadPower, rpc.Empty
	if p.lastCap {
		if p.capped {
			method = agent.MethodClearCap
		} else {
			method, req = agent.MethodSetCap, wire.Message(&p.capReq)
		}
	}
	p.issuedAt = time.Now()
	p.client.Call(method, req, tcpCallTimeout, p.onDone)
}

// done runs on the controller loop when a call completes.
func (p *tcpPeer) done(body []byte, err error) {
	rtt := time.Since(p.issuedAt)
	ok := err == nil && p.verify(body)
	if p.record {
		p.cost.stepUS = append(p.cost.stepUS, float64(rtt.Nanoseconds())/1e3)
		if !ok {
			p.cost.failed++
			if errors.Is(err, rpc.ErrTimeout) {
				p.cost.late++
			}
		}
	}
	if p.left--; p.left == 0 {
		p.finished()
		return
	}
	p.issue()
}

// verify checks the answer: a cap command must be acknowledged, and every
// reading must decode, be positive, and show the limit the last cap command
// left on the host.
func (p *tcpPeer) verify(body []byte) bool {
	if p.lastCap {
		var resp agent.CapResponse
		if wire.Unmarshal(body, &resp) != nil || !resp.OK {
			return false
		}
		p.capped = !p.capped
		return true
	}
	var resp agent.ReadPowerResponse
	if wire.Unmarshal(body, &resp) != nil || resp.TotalWatts <= 0 {
		return false
	}
	return resp.Capped == p.capped && (!p.capped || resp.CapWatts == p.limit)
}
