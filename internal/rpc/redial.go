package rpc

import (
	"net"
	"sync"
	"time"

	"dynamo/internal/simclock"
	"dynamo/internal/telemetry"
	"dynamo/internal/wire"
)

// DefaultRedialTimeout bounds each connection attempt a RedialClient
// makes; a partitioned peer must fail the attempt, not hang it.
const DefaultRedialTimeout = 2 * time.Second

// RedialClient is a Client over TCP that transparently re-establishes its
// connection. The first Call dials lazily, and after the connection dies
// (peer restart, network blip) the next Call dials a fresh one — so a
// controller's quarantine probe can re-admit an agent whose process was
// restarted, which a single-connection TCPClient can never do. A failed
// connection attempt completes the call with ErrUnreachable, which the
// retry layer treats as retryable and the quarantine breaker counts like
// any other failed pull. Calls that arrive while a dial is in flight are
// queued behind it rather than racing their own connections.
type RedialClient struct {
	addr string
	loop simclock.Loop

	mu      sync.Mutex
	sink    *telemetry.Sink
	cur     *TCPClient
	dialing bool
	queue   []queuedCall
	closed  bool
}

type queuedCall struct {
	method  string
	req     wire.Message
	timeout time.Duration
	done    func([]byte, error)
}

// RedialTCP returns a lazily-connecting, self-reconnecting client for a
// TCP endpoint. It never fails at construction: an unreachable peer
// surfaces as ErrUnreachable on calls until it comes up.
func RedialTCP(addr string, loop simclock.Loop) *RedialClient {
	return &RedialClient{addr: addr, loop: loop}
}

// SetTelemetry instruments the current and every future connection.
func (r *RedialClient) SetTelemetry(sink *telemetry.Sink) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sink = sink
	if r.cur != nil {
		r.cur.SetTelemetry(sink)
	}
}

// Call implements Client.
func (r *RedialClient) Call(method string, req wire.Message, timeout time.Duration, done func([]byte, error)) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		r.loop.Post(func() { done(nil, ErrClosed) })
		return
	}
	if cl := r.cur; cl != nil && cl.Alive() {
		r.mu.Unlock()
		cl.Call(method, req, timeout, done)
		return
	}
	r.queue = append(r.queue, queuedCall{method: method, req: req, timeout: timeout, done: done})
	if !r.dialing {
		r.dialing = true
		go r.dial()
	}
	r.mu.Unlock()
}

// dial runs off-loop (connection setup must never block the loop
// goroutine), then drains every call queued behind it onto the new
// connection — or fails them all with one verdict.
func (r *RedialClient) dial() {
	conn, err := net.DialTimeout("tcp", r.addr, DefaultRedialTimeout)

	r.mu.Lock()
	r.dialing = false
	q := r.queue
	r.queue = nil
	if r.closed {
		r.mu.Unlock()
		if err == nil {
			conn.Close()
		}
		r.fail(q, ErrClosed)
		return
	}
	if err != nil {
		r.mu.Unlock()
		r.fail(q, ErrUnreachable)
		return
	}
	cl := newTCPClient(conn, r.loop)
	if r.sink != nil {
		cl.SetTelemetry(r.sink)
	}
	old := r.cur
	r.cur = cl
	r.mu.Unlock()

	if old != nil {
		old.Close() // already dead; releases the fd
	}
	for _, c := range q {
		cl.Call(c.method, c.req, c.timeout, c.done)
	}
}

func (r *RedialClient) fail(q []queuedCall, err error) {
	for _, c := range q {
		done := c.done
		r.loop.Post(func() { done(nil, err) })
	}
}

// Close implements Client.
func (r *RedialClient) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	cur := r.cur
	r.cur = nil
	q := r.queue
	r.queue = nil
	r.mu.Unlock()
	if cur != nil {
		cur.Close()
	}
	r.fail(q, ErrClosed)
	return nil
}
