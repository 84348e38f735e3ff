package rpc

import (
	"math/rand"
	"sync"
	"time"

	"dynamo/internal/simclock"
	"dynamo/internal/wire"
)

// Network is the in-process transport: a registry of endpoints reachable
// by address, with simulated one-way latency and fault injection. All
// delivery is scheduled on a simclock.Loop, so behaviour is deterministic.
//
// Network is safe for use from the loop goroutine; Register/Unregister and
// fault-injection setters may also be called before the loop starts.
type Network struct {
	loop    simclock.Loop
	latency time.Duration
	rng     *rand.Rand

	mu          sync.Mutex
	endpoints   map[string]Handler
	partitioned map[string]bool
	dropRate    map[string]float64

	// Loop-confined: the free list of call records, and the scratch
	// encoder every request and response is marshalled through.
	free *call
	enc  wire.Encoder
}

// NewNetwork creates an in-process network with the given one-way latency
// (zero is allowed and common for consolidated controllers that share a
// process, paper §III-A).
func NewNetwork(loop simclock.Loop, latency time.Duration, seed int64) *Network {
	return &Network{
		loop:        loop,
		latency:     latency,
		rng:         rand.New(rand.NewSource(seed)),
		endpoints:   make(map[string]Handler),
		partitioned: make(map[string]bool),
		dropRate:    make(map[string]float64),
	}
}

// Register installs a handler at addr, replacing any previous handler.
func (n *Network) Register(addr string, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.endpoints[addr] = h
}

// Unregister removes the endpoint; subsequent calls get ErrUnreachable.
func (n *Network) Unregister(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.endpoints, addr)
}

// SetPartitioned isolates (or heals) an endpoint: calls to a partitioned
// address time out rather than failing fast, like a real network hang.
func (n *Network) SetPartitioned(addr string, yes bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if yes {
		n.partitioned[addr] = true
	} else {
		delete(n.partitioned, addr)
	}
}

// SetDropRate makes a fraction of calls to addr hang (and eventually time
// out on the caller side).
func (n *Network) SetDropRate(addr string, rate float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if rate <= 0 {
		delete(n.dropRate, addr)
	} else {
		n.dropRate[addr] = rate
	}
}

// lookup returns addr's handler, nil if there is none, and whether the
// message should be delivered to it.
func (n *Network) lookup(addr string) (h Handler, deliver bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	h = n.endpoints[addr]
	if h == nil || (len(n.partitioned) == 0 && len(n.dropRate) == 0) {
		return h, h != nil
	}
	if n.partitioned[addr] {
		return h, false
	}
	if r := n.dropRate[addr]; r > 0 && n.rng.Float64() < r {
		return h, false
	}
	return h, true
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
}

// respBufSize is what a record's response buffer starts with: the 96-byte
// size class holds an encoded agent reading (about 80 bytes) where growing
// by append would stop at 128.
const respBufSize = 96

// call is one in-flight in-proc call. Records are pooled on Network.free,
// so a steady-state call allocates nothing of its own: both timers are
// embedded and armed in place, their callbacks are bound once when the
// record is made, and request and response are marshalled into buffers the
// record keeps. A record goes back to the free list only when done has run
// and none of its events is still queued (DESIGN.md, "Pull path").
type call struct {
	c      *inprocClient
	method string
	done   func([]byte, error)

	deadline, step     simclock.Timer // step is the delivery event, then re-armed as the reply event
	onDeadline, onStep func()

	req, resp []byte // resp is marshalled at delivery and handed to done at reply
	err       error  // the handler's error, as the caller will see it
	next      *call  // free-list link

	timed    bool // a deadline was armed
	finished bool // done has been invoked
	queued   bool // the step event is on the loop
	replying bool // ... and it is the reply
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
		r.onDeadline, r.onStep = r.deadlineFired, r.stepFired
	} else {
		n.free = r.next
	}
	r.c, r.method, r.done, r.timed, r.queued = c, method, done, timeout > 0, true
	if r.timed {
		n.loop.Arm(&r.deadline, timeout, r.onDeadline)
	}
	r.req = n.enc.AppendMarshal(r.req[:0], req)
	n.loop.Arm(&r.step, n.latency, r.onStep)
}

// finish completes the call exactly once: whichever of the deadline and
// the reply comes second finds finished set.
func (r *call) finish(resp []byte, err error) {
	if r.finished {
		return
	}
	r.finished = true
	if r.timed {
		r.c.net.loop.Cancel(&r.deadline)
	}
	r.done(resp, err)
}

// recycle frees the record unless the call is unfinished (a vanished
// request waiting for its deadline) or still has its step event queued (a
// call that timed out before delivery or reply).
func (r *call) recycle() {
	if !r.finished || r.queued {
		return
	}
	n := r.c.net
	r.c, r.method, r.done, r.err = nil, "", nil, nil
	r.timed, r.finished, r.replying = false, false, false
	r.next, n.free = n.free, r
}

func (r *call) deadlineFired() {
	r.finish(nil, ErrTimeout)
	r.recycle()
}

func (r *call) stepFired() {
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
	h, deliver := n.lookup(r.c.addr)
	if deliver {
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
		n.loop.Arm(&r.step, n.latency, r.onStep)
		return
	}
	// No endpoint fails fast. A partitioned or dropped request vanishes:
	// only the caller's timeout (if any) will complete the call.
	r.queued = false
	if h == nil || !r.timed {
		r.finish(nil, ErrUnreachable)
	}
	r.recycle()
}

// Close implements Client.
func (c *inprocClient) Close() error {
	c.closed = true
	return nil
}
