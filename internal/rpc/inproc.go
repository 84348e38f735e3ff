package rpc

import (
	"sync"
	"sync/atomic"
	"time"

	"dynamo/internal/simclock"
	"dynamo/internal/wire"
)

// Network is the in-process transport: a registry of endpoints reachable
// by address, with simulated one-way latency. All delivery is scheduled on
// a simclock.Loop, so behaviour is deterministic. A call has two outcomes:
// the endpoint's handler runs, or there is no endpoint and the call fails
// fast with ErrUnreachable (a crashed process refusing connections).
// Hangs, drops and partitions are internal/faults rules on clients dialled
// through an Injector, not states of the network.
//
// Network is safe for use from the loop goroutine; Register/Unregister may
// also be called before the loop starts.
type Network struct {
	loop    simclock.Loop
	latency time.Duration

	mu        sync.Mutex
	endpoints map[string]Handler
	gen       atomic.Uint64 // bumped under mu by every Register and Unregister

	// Loop-confined: the free lists of call and burst records, the open
	// bursts (the last armed for deliveries and for replies, possibly run
	// since), and the scratch encoder every request and response is
	// marshalled through.
	free                *call
	spare               *burst
	deliveries, replies *burst
	enc                 wire.Encoder
}

// NewNetwork creates an in-process network with the given one-way latency
// (zero is allowed and common for consolidated controllers that share a
// process, paper §III-A). The third parameter is ignored: nothing here is
// random (it stays until bench/probes.go may change; see ROADMAP).
func NewNetwork(loop simclock.Loop, latency time.Duration, _ int64) *Network {
	return &Network{loop: loop, latency: latency, endpoints: make(map[string]Handler)}
}

// Register installs a handler at addr, replacing any previous handler.
func (n *Network) Register(addr string, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.endpoints[addr] = h
	n.gen.Add(1)
}

// Unregister removes the endpoint; subsequent calls get ErrUnreachable.
func (n *Network) Unregister(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.endpoints, addr)
	n.gen.Add(1)
}

// Dial returns a client for addr. Dialling an unknown address succeeds;
// calls will fail with ErrUnreachable, matching lazy TCP connection
// establishment.
func (n *Network) Dial(addr string) Client {
	return &inprocClient{net: n, addr: addr}
}

type inprocClient struct {
	net    *Network
	addr   string
	closed bool

	// The endpoint's handler as of Network.gen == gen. Loop-confined.
	h   Handler
	gen uint64
}

// handler returns the endpoint's handler, nil if there is none. It takes
// the network's lock only after a Register or Unregister; until the first
// one, gen is 0 on both sides and there is no endpoint to find.
func (c *inprocClient) handler() Handler {
	n := c.net
	if g := n.gen.Load(); g != c.gen {
		n.mu.Lock()
		c.h, c.gen = n.endpoints[c.addr], g
		n.mu.Unlock()
	}
	return c.h
}

// respBufSize is what a record's response buffer starts with: the 48-byte
// size class holds every reply a pull gets, an agent's reading (22 bytes
// for a web server, 28 for the longest service name in the fleet) and a
// controller's (35), so no steady-state reply grows it.
const respBufSize = 48

// call is one in-flight in-proc call. Records are pooled on Network.free,
// so a steady-state call allocates nothing of its own: its delivery and
// reply steps run from bursts, its deadline callback is bound once when
// the record is made, and request and response are marshalled into
// buffers the record keeps. A record goes back to the free list only when
// done has run and no step of it is still queued (DESIGN.md, "Pull path").
type call struct {
	c      *inprocClient
	method string
	done   func([]byte, error)

	deadline   *simclock.Timer // nil unless the deadline can fire first (Call)
	onDeadline func()

	req, resp []byte // resp is marshalled at delivery and handed to done at reply
	err       error  // the handler's error, as the caller will see it
	next      *call  // free-list link, and burst link while a step is queued

	finished bool // done has been invoked
	queued   bool // a step is in a burst
	replying bool // ... and it is the reply
}

// burst is one loop event that runs the steps — deliveries or replies —
// of calls due at one instant, in the order they were queued. A step
// joins a burst only while its timer is the last one queued for that
// instant (Timer.Last), so the steps of a burst are exactly a run of
// events that would have been adjacent in the loop's lane, and one event
// running them in list order runs them exactly where an event per step
// would. Records are pooled on Network.spare, timer embedded and callback
// bound once.
type burst struct {
	n          *Network
	t          simclock.Timer
	at         time.Duration // the instant t is armed for
	head, tail *call         // the queued steps, linked through call.next
	fire       func()        // b.fired
	next       *burst        // spare-list link
}

// Call implements Client.
func (c *inprocClient) Call(method string, req wire.Message, timeout time.Duration, done func([]byte, error)) {
	n := c.net
	if c.closed {
		n.loop.After(0, func() { done(nil, ErrClosed) })
		return
	}
	r := n.free
	if r == nil {
		r = &call{}
		r.onDeadline = r.deadlineFired
	} else {
		n.free = r.next
	}
	r.c, r.method, r.done, r.queued = c, method, done, true
	// Delivery either fails fast or schedules the reply, 2×latency after
	// the call, so a longer deadline could never fire first and is not
	// armed. One of exactly 2×latency is armed before the reply and wins.
	if timeout > 0 && timeout <= 2*n.latency {
		r.deadline = n.loop.After(timeout, r.onDeadline)
	}
	r.req = n.enc.AppendMarshal(r.req[:0], req)
	n.enqueue(&n.deliveries, r)
}

// enqueue queues r's next step latency from now: in the open burst *open
// if that is due at the same instant and still the last event queued for
// it, else in a new burst, which becomes *open.
func (n *Network) enqueue(open **burst, r *call) {
	at := n.loop.Now() + n.latency
	b := *open
	if b == nil || b.at != at || !b.t.Last() {
		if b = n.spare; b != nil {
			n.spare = b.next
		} else {
			b = &burst{n: n}
			b.fire = b.fired
		}
		b.at = at
		n.loop.Arm(&b.t, n.latency, b.fire)
		*open = b
	}
	r.next = nil
	if b.tail != nil {
		b.tail.next = r
	} else {
		b.head = r
	}
	b.tail = r
}

// fired runs the burst's steps. The record is freed first, so a step that
// queues the next one (a delivery queueing its reply) may reuse it.
func (b *burst) fired() {
	n, r := b.n, b.head
	b.head, b.tail = nil, nil
	b.next, n.spare = n.spare, b
	for r != nil {
		next := r.next // the step may link r into another burst
		r.step()
		r = next
	}
}

// finish completes the call exactly once: whichever of the deadline and
// the reply comes second finds finished set.
func (r *call) finish(resp []byte, err error) {
	if r.finished {
		return
	}
	r.finished = true
	if r.deadline != nil {
		r.c.net.loop.Cancel(r.deadline)
		r.deadline = nil
	}
	r.done(resp, err)
}

// recycle frees the record unless a step is still queued (a call that
// timed out before delivery or reply).
func (r *call) recycle() {
	if r.queued {
		return
	}
	n := r.c.net
	r.c, r.method, r.done, r.err = nil, "", nil, nil
	r.finished, r.replying = false, false
	r.next, n.free = n.free, r
}

func (r *call) deadlineFired() {
	r.finish(nil, ErrTimeout)
	r.recycle()
}

// step runs the call's queued step: the delivery, which queues the reply,
// or the reply.
func (r *call) step() {
	n := r.c.net
	if r.replying {
		r.queued = false
		if r.err != nil {
			r.finish(nil, r.err)
		} else {
			r.finish(r.resp, nil)
		}
		r.recycle()
		return
	}
	h := r.c.handler()
	if h == nil {
		// No endpoint fails fast, deadline or not.
		r.queued = false
		r.finish(nil, ErrUnreachable)
		r.recycle()
		return
	}
	// The handler runs even if the caller has already timed out: the
	// request was sent, and its effects are the remote side's.
	resp, err := h(r.method, r.req)
	if err != nil {
		r.err = &RemoteError{Method: r.method, Msg: err.Error()}
	} else {
		if r.resp == nil {
			r.resp = make([]byte, 0, respBufSize)
		}
		r.resp = n.enc.AppendMarshal(r.resp[:0], resp)
	}
	r.replying = true
	n.enqueue(&n.replies, r)
}

// Close implements Client.
func (c *inprocClient) Close() error {
	c.closed = true
	return nil
}
