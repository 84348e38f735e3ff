package rpc

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"dynamo/internal/simclock"
	"dynamo/internal/wire"
)

// refNetwork is the in-proc transport as it was before bursts: every call
// arms a step timer of its own, first as the delivery event and then again
// as the reply event. It keeps the deadline, unreachable and completion
// rules of Network and none of its pooling, so it is the order oracle for
// the burst path.
type refNetwork struct {
	loop      simclock.Loop
	latency   time.Duration
	endpoints map[string]Handler
}

func (n *refNetwork) Register(addr string, h Handler) { n.endpoints[addr] = h }
func (n *refNetwork) Unregister(addr string)          { delete(n.endpoints, addr) }
func (n *refNetwork) Dial(addr string) Client         { return &refClient{net: n, addr: addr} }

type refClient struct {
	net    *refNetwork
	addr   string
	closed bool
}

func (c *refClient) Close() error {
	c.closed = true
	return nil
}

func (c *refClient) Call(method string, req wire.Message, timeout time.Duration, done func([]byte, error)) {
	n := c.net
	if c.closed {
		n.loop.After(0, func() { done(nil, ErrClosed) })
		return
	}
	var deadline *simclock.Timer
	finished := false
	finish := func(resp []byte, err error) {
		if finished {
			return
		}
		finished = true
		if deadline != nil {
			n.loop.Cancel(deadline)
		}
		done(resp, err)
	}
	if timeout > 0 && timeout <= 2*n.latency {
		deadline = n.loop.After(timeout, func() { finish(nil, ErrTimeout) })
	}
	body := wire.Marshal(req)
	step := &simclock.Timer{}
	n.loop.Arm(step, n.latency, func() {
		h := n.endpoints[c.addr]
		if h == nil {
			finish(nil, ErrUnreachable)
			return
		}
		resp, err := h(method, body)
		var out []byte
		var rerr error
		if err != nil {
			rerr = &RemoteError{Method: method, Msg: err.Error()}
		} else {
			out = wire.Marshal(resp)
		}
		n.loop.Arm(step, n.latency, func() { finish(out, rerr) })
	})
}

// transport is what a burst scenario needs of a network.
type transport interface {
	Register(addr string, h Handler)
	Unregister(addr string)
	Dial(addr string) Client
}

// burstScenario drives one seeded script of calls, foreign timers,
// registry changes and closed clients against a transport, logging the
// (time, order) of every handler run, completion and foreign event. The
// script draws from one rng in execution order, so two transports that
// run events in the same order log the same lines.
type burstScenario struct {
	t       *testing.T
	loop    *simclock.SimLoop
	net     transport
	rng     *rand.Rand
	lat     time.Duration
	addrs   []string
	clients []Client
	foreign []*simclock.Timer
	log     []string
	calls   int
	dones   map[int]int
}

const (
	burstAddrs   = 4
	burstClients = 6
	maxCalls     = 300
)

func (s *burstScenario) logf(format string, args ...any) {
	s.log = append(s.log, fmt.Sprintf("%v ", s.loop.Now())+fmt.Sprintf(format, args...))
}

// handler logs its run and, now and then, arms or drops a foreign timer,
// changes the registry or issues a call of its own from inside the burst.
func (s *burstScenario) handler(addr string) Handler {
	return func(method string, body []byte) (wire.Message, error) {
		var m echoMsg
		if err := wire.Unmarshal(body, &m); err != nil {
			return nil, err
		}
		s.logf("%s ran %s %s", addr, method, m.S)
		s.meddle()
		if method == "boom" {
			return nil, errors.New("kaboom " + m.S)
		}
		return &echoMsg{S: addr + ":" + m.S}, nil
	}
}

// meddle does what a handler or a foreign callback may do between two
// steps of a burst.
func (s *burstScenario) meddle() {
	switch s.rng.Intn(10) {
	case 0, 1:
		s.arm()
	case 2:
		s.drop()
	case 3:
		s.reregister()
	case 4:
		s.issue()
	}
}

// arm queues a foreign timer at the instant a delivery or a reply issued
// now would land, or at this instant.
func (s *burstScenario) arm() {
	d := []time.Duration{0, s.lat, 2 * s.lat, s.lat / 2}[s.rng.Intn(4)]
	id := len(s.foreign)
	s.foreign = append(s.foreign, s.loop.After(d, func() {
		s.logf("foreign %d", id)
		if s.rng.Intn(4) == 0 {
			s.issue()
		}
	}))
}

// drop cancels or stops a foreign timer, queued or not.
func (s *burstScenario) drop() {
	if len(s.foreign) == 0 {
		return
	}
	f := s.foreign[s.rng.Intn(len(s.foreign))]
	if s.rng.Intn(2) == 0 {
		s.loop.Cancel(f)
	} else {
		f.Stop()
	}
}

// reregister takes an endpoint down or brings it back, possibly while a
// burst of calls to it is in flight.
func (s *burstScenario) reregister() {
	addr := s.addrs[s.rng.Intn(len(s.addrs))]
	if s.rng.Intn(2) == 0 {
		s.net.Unregister(addr)
	} else {
		s.net.Register(addr, s.handler(addr))
	}
}

// issue makes one call from a random client, with a deadline that may
// fire before, at or after the reply.
func (s *burstScenario) issue() {
	if s.calls >= maxCalls {
		return
	}
	id := s.calls
	s.calls++
	c := s.rng.Intn(len(s.clients))
	method := "echo"
	if s.rng.Intn(8) == 0 {
		method = "boom"
	}
	timeout := []time.Duration{0, s.lat / 2, s.lat, 3 * s.lat / 2, 2 * s.lat, 10 * s.lat, time.Second}[s.rng.Intn(7)]
	s.clients[c].Call(method, &echoMsg{S: strconv.Itoa(id)}, timeout, func(resp []byte, err error) {
		s.dones[id]++
		var m echoMsg
		if err == nil {
			err = wire.Unmarshal(resp, &m)
		}
		s.logf("done %d from client %d: %q %v", id, c, m.S, err)
		if s.rng.Intn(6) == 0 {
			s.meddle()
		}
	})
}

// runBurstScenario plays seed's script on the transport mk builds.
func runBurstScenario(t *testing.T, seed int64, mk func(loop *simclock.SimLoop, lat time.Duration) transport) (*burstScenario, []string) {
	rng := rand.New(rand.NewSource(seed))
	lat := []time.Duration{0, time.Millisecond, 2 * time.Millisecond}[rng.Intn(3)]
	loop := simclock.NewSimLoop()
	loop.SetStepLimit(100_000)
	s := &burstScenario{t: t, loop: loop, net: mk(loop, lat), rng: rng, lat: lat, dones: map[int]int{}}
	for i := 0; i < burstAddrs; i++ {
		addr := fmt.Sprintf("a%d", i)
		s.addrs = append(s.addrs, addr)
		if i < burstAddrs-1 { // the last one starts unregistered
			s.net.Register(addr, s.handler(addr))
		}
	}
	for i := 0; i < burstClients; i++ {
		s.clients = append(s.clients, s.net.Dial(s.addrs[i%burstAddrs]))
	}
	// Script events at a few instants, several sharing one: each issues a
	// run of calls with foreign timers, drops, registry changes and closed
	// clients between them.
	for d := 0; d < 12; d++ {
		at := time.Duration(rng.Intn(4)) * lat
		if rng.Intn(3) == 0 {
			at = time.Duration(rng.Intn(5000)) * time.Microsecond
		}
		loop.After(at, func() {
			for k := 1 + s.rng.Intn(12); k > 0; k-- {
				switch s.rng.Intn(12) {
				case 0:
					s.arm()
				case 1:
					s.drop()
				case 2:
					s.reregister()
				case 3:
					if s.rng.Intn(4) == 0 {
						s.clients[s.rng.Intn(len(s.clients))].Close()
					}
				default:
					s.issue()
				}
			}
		})
	}
	loop.Drain()
	for id := 0; id < s.calls; id++ {
		if s.dones[id] != 1 {
			t.Fatalf("seed %d: call %d completed %d times", seed, id, s.dones[id])
		}
	}
	return s, s.log
}

// queued reports whether b holds steps that have not run.
func queued(b *burst) bool { return b != nil && b.head != nil }

// TestBurstOrderMatchesReference plays seeded scenarios on Network and on
// the one-event-per-step reference and requires the same handler runs and
// completions, at the same times, in the same order — with same-instant
// calls from several clients, foreign timers armed at the delivery or
// reply instant between calls and from inside handlers (then cancelled or
// stopped), deadlines at or below 2×latency, endpoints unregistered in
// the middle of a burst, and closed clients. Network must also run at
// most three quarters of the reference's events (deadlines and foreign
// timers included), or the bursts did not form.
func TestBurstOrderMatchesReference(t *testing.T) {
	var events, refEvents uint64
	for seed := int64(1); seed <= 400; seed++ {
		var net *Network
		s, got := runBurstScenario(t, seed, func(loop *simclock.SimLoop, lat time.Duration) transport {
			net = NewNetwork(loop, lat, 1)
			return net
		})
		ref, want := runBurstScenario(t, seed, func(loop *simclock.SimLoop, lat time.Duration) transport {
			return &refNetwork{loop: loop, latency: lat, endpoints: map[string]Handler{}}
		})
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				g := "<end of log>"
				if i < len(got) {
					g = got[i]
				}
				t.Fatalf("seed %d: event %d is %q, reference %q", seed, i, g, want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d events logged, reference %d; first extra %q", seed, len(got), len(want), got[len(want)])
		}
		if s.loop.Pending() != 0 || queued(net.deliveries) || queued(net.replies) {
			t.Fatalf("seed %d: events left after Drain", seed)
		}
		events += s.loop.Steps()
		refEvents += ref.loop.Steps()
	}
	if events*4 > refEvents*3 {
		t.Fatalf("bursts ran %d loop events against the reference's %d: they hardly formed", events, refEvents)
	}
}
