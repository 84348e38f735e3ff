package rpc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"dynamo/internal/simclock"
	"dynamo/internal/wire"
)

// A frame is a 4-byte big-endian payload length followed by the payload,
// one marshalled envelope (DESIGN.md, "The TCP transport").
const (
	maxFrame    = 16 << 20 // bounds a single RPC frame
	readBufSize = 512      // per connection; one read takes in a whole agent reading
	// growStep is the smallest payload buffer. Past it a buffer at most
	// doubles per step, and only as bytes arrive: a length prefix alone
	// buys the sender no memory.
	growStep = 256
	// keepFrame is the largest buffer a connection keeps between frames: a
	// statestore batch may be megabytes once, and must not stay pinned.
	keepFrame = 64 << 10
	// keepMethods bounds the method names a reader keeps: a connection
	// carries a handful (an agent's pull and its commands).
	keepMethods = 8
)

const (
	kindRequest  = 0
	kindResponse = 1
)

// envelope is the on-wire header+body for both directions.
type envelope struct {
	Kind   byte
	ID     uint64
	Method string // requests
	ErrMsg string // responses; empty means success
	IsErr  bool
	Body   []byte

	// methods are the names decoded so far, at most keepMethods, so a name
	// that recurs is not made again however the names alternate.
	methods []string
}

// MarshalWire implements wire.Message.
func (v *envelope) MarshalWire(e *wire.Encoder) {
	e.Uvarint(uint64(v.Kind))
	e.Uvarint(v.ID)
	e.String(v.Method)
	e.Bool(v.IsErr)
	e.String(v.ErrMsg)
	e.Bytes2(v.Body)
}

// UnmarshalWire implements wire.Message. Decoding into a reader's envelope
// reuses the strings of earlier frames when they repeat, and Body aliases
// the decoder's buffer.
func (v *envelope) UnmarshalWire(d *wire.Decoder) error {
	v.Kind = byte(d.Uvarint())
	v.ID = d.Uvarint()
	v.Method = v.method(d)
	v.IsErr = d.Bool()
	v.ErrMsg = d.StringKeep(v.ErrMsg)
	v.Body = d.BytesRef()
	return d.Err()
}

// method decodes a method name, returning the string of the same name
// decoded before when there is one: the last frame's, as StringKeep would,
// or one of the kept names.
func (v *envelope) method(d *wire.Decoder) string {
	b := d.BytesRef()
	if string(b) == v.Method {
		return v.Method
	}
	for _, m := range v.methods {
		if string(b) == m {
			return m
		}
	}
	m := string(b)
	if len(v.methods) < keepMethods && d.Err() == nil {
		v.methods = append(v.methods, m)
	}
	return m
}

// reuse empties b for the next frame, or drops it if a large frame grew it.
func reuse(b []byte) []byte {
	if cap(b) > keepFrame {
		return nil
	}
	return b[:0]
}

// frameReader decodes a connection's frames into one envelope, through a
// payload buffer it keeps. Body aliases that buffer: it is valid until the
// next call to next.
type frameReader struct {
	r   *bufio.Reader
	buf []byte
	d   wire.Decoder
	env envelope
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: bufio.NewReaderSize(r, readBufSize)}
}

func (fr *frameReader) next() (*envelope, error) {
	fr.buf, fr.env.Body = reuse(fr.buf), nil
	hdr, err := fr.r.Peek(4)
	if err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	fr.r.Discard(4)
	if n > maxFrame {
		return nil, fmt.Errorf("rpc: frame of %d bytes exceeds limit", n)
	}
	for len(fr.buf) < n {
		if len(fr.buf) == cap(fr.buf) {
			grown := make([]byte, len(fr.buf), min(max(2*cap(fr.buf), growStep), max(n, growStep)))
			copy(grown, fr.buf)
			fr.buf = grown
		}
		k, err := io.ReadFull(fr.r, fr.buf[len(fr.buf):min(n, cap(fr.buf))])
		fr.buf = fr.buf[:len(fr.buf)+k]
		if err != nil {
			return nil, err
		}
	}
	fr.d.Reset(fr.buf)
	return &fr.env, fr.env.UnmarshalWire(&fr.d)
}

// frameWriter frames a connection's envelopes into a buffer it keeps. It
// is not safe for concurrent use.
type frameWriter struct {
	w   io.Writer
	enc wire.Encoder
	env envelope
	buf []byte
}

// frame encodes env, with the body its Body refers to, as one frame in buf.
func (fw *frameWriter) frame() {
	fw.buf = fw.enc.AppendMarshal(append(fw.buf[:0], 0, 0, 0, 0), &fw.env)
	binary.BigEndian.PutUint32(fw.buf, uint32(len(fw.buf)-4))
	fw.env.Body = nil
}

// flush writes the frame with one Write.
func (fw *frameWriter) flush() error {
	_, err := fw.w.Write(fw.buf)
	fw.buf = reuse(fw.buf)
	return err
}

// TCPServer serves a Handler over framed TCP connections.
type TCPServer struct {
	handler Handler
	tel     *rpcInstr // nil when telemetry is disabled

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewTCPServer creates a server for the handler.
func NewTCPServer(h Handler) *TCPServer {
	return &TCPServer{handler: h, conns: make(map[net.Conn]struct{})}
}

// Listen starts listening on addr ("host:port"; ":0" picks a free port)
// and serves in background goroutines. It returns the bound address.
func (s *TCPServer) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *TCPServer) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// serveConn answers a connection's requests in order, on this goroutine:
// production handlers are LoopHandlers, which run one at a time anyway.
func (s *TCPServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	fr := newFrameReader(conn)
	fw := &frameWriter{w: conn}
	var body []byte
	for {
		req, err := fr.next()
		if err != nil {
			return
		}
		if req.Kind != kindRequest {
			continue
		}
		var start time.Time
		if s.tel != nil {
			start = time.Now()
			s.tel.requests.Inc()
		}
		fw.env = envelope{Kind: kindResponse, ID: req.ID}
		m, err := s.handler(req.Method, req.Body)
		if err != nil {
			fw.env.IsErr, fw.env.ErrMsg = true, err.Error()
			if s.tel != nil {
				s.tel.errors.Inc()
			}
		} else if m != nil {
			body = fw.enc.AppendMarshal(body, m)
			if c, ok := m.(*loopCall); ok {
				c.release()
			}
		}
		if s.tel != nil {
			s.tel.latency.Observe(time.Since(start).Seconds())
		}
		fw.env.Body = body
		fw.frame()
		body = reuse(body)
		if fw.flush() != nil {
			return // the connection is going away
		}
	}
}

// Close stops the listener and all connections, waiting for handlers.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	return nil
}

// TCPClient is a Client over a single TCP connection. Completion callbacks
// are posted to the provided loop.
type TCPClient struct {
	loop simclock.Loop
	conn net.Conn
	tel  *rpcInstr // nil when telemetry is disabled

	writeMu sync.Mutex
	w       frameWriter

	mu      sync.Mutex
	pending map[uint64]*tcpCall
	free    *tcpCall
	nextID  uint64
	closed  bool
}

// tcpCall is one call's record. Records are pooled per client, so a
// steady-state call allocates nothing: the request is marshalled and the
// reply copied into buffers the record keeps, the deadline is a runtime
// timer made once and re-armed, and the completion is bound once. Whoever
// takes the record out of pending completes it; a record whose deadline
// fired while the reply or a failure took it is dropped, not reused, so
// that stale fire can never complete a later call (DESIGN.md, "The TCP
// transport").
type tcpCall struct {
	c            *TCPClient
	id           uint64
	method       string
	done         func([]byte, error)
	post         func() // complete, bound once
	timer        *time.Timer
	enc          wire.Encoder
	req          []byte
	resp         []byte // valid until done returns
	err          error
	start        time.Time // telemetry only
	next         *tcpCall  // free-list link
	timed, reuse bool
}

// DialTCP connects to a TCP endpoint.
func DialTCP(addr string, loop simclock.Loop) (*TCPClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newTCPClient(conn, loop), nil
}

func newTCPClient(conn net.Conn, loop simclock.Loop) *TCPClient {
	c := &TCPClient{loop: loop, conn: conn, w: frameWriter{w: conn}, pending: make(map[uint64]*tcpCall)}
	go c.readLoop()
	return c
}

func (c *TCPClient) readLoop() {
	fr := newFrameReader(c.conn)
	for {
		env, err := fr.next()
		if err != nil {
			c.Close() // the peer is gone: fail fast from here on
			return
		}
		if env.Kind != kindResponse {
			continue
		}
		c.mu.Lock()
		r := c.pending[env.ID]
		delete(c.pending, env.ID)
		c.mu.Unlock()
		if r == nil {
			// Late response: the call already timed out and its pending
			// entry was reaped. Count it — a rising rate means timeouts
			// are tuned below the peer's real latency.
			if c.tel != nil {
				c.tel.late.Inc()
			}
			continue
		}
		if env.IsErr {
			r.err = &RemoteError{Method: r.method, Msg: env.ErrMsg}
		} else {
			r.resp = append(r.resp, env.Body...)
		}
		r.finish()
	}
}

// finish posts the completion of a record taken out of pending by anything
// but its own deadline.
func (r *tcpCall) finish() {
	r.reuse = !r.timed || r.timer.Stop()
	r.c.loop.Post(r.post)
}

func (r *tcpCall) deadline() {
	c := r.c
	c.mu.Lock()
	if c.pending[r.id] != r {
		c.mu.Unlock()
		return
	}
	delete(c.pending, r.id)
	c.mu.Unlock()
	r.err, r.reuse = ErrTimeout, true
	c.loop.Post(r.post)
}

// complete runs on the loop: it delivers the outcome, then frees the record.
func (r *tcpCall) complete() {
	c := r.c
	resp, err := r.resp, r.err
	if err != nil {
		resp = nil
	}
	if c.tel != nil {
		c.tel.latency.Observe(time.Since(r.start).Seconds())
		if err != nil {
			c.tel.errors.Inc()
		}
	}
	r.done(resp, err)
	if !r.reuse {
		return
	}
	r.method, r.done, r.req, r.resp, r.err = "", nil, reuse(r.req), reuse(r.resp), nil
	c.mu.Lock()
	r.next, c.free = c.free, r
	c.mu.Unlock()
}

func (c *TCPClient) failAll(err error) {
	c.mu.Lock()
	pending := c.pending
	c.pending = make(map[uint64]*tcpCall)
	c.mu.Unlock()
	for _, r := range pending {
		r.err = err
		r.finish()
	}
}

// Call implements Client.
func (c *TCPClient) Call(method string, req wire.Message, timeout time.Duration, done func([]byte, error)) {
	c.mu.Lock()
	r := c.free
	if r == nil {
		r = &tcpCall{c: c, resp: make([]byte, 0, respBufSize)}
		r.post = r.complete
	} else {
		c.free = r.next
	}
	c.nextID++
	id := c.nextID
	c.mu.Unlock()

	// The record is this call's alone until it is pending; after that it
	// may complete, and be reused, at any moment.
	r.id, r.method, r.done, r.timed = id, method, done, timeout > 0
	if c.tel != nil {
		c.tel.requests.Inc()
		r.start = time.Now()
	}
	r.req = r.enc.AppendMarshal(r.req, req)

	c.writeMu.Lock()
	c.w.env = envelope{Kind: kindRequest, ID: id, Method: method, Body: r.req}
	c.w.frame()
	c.mu.Lock()
	open := !c.closed
	if open {
		switch {
		case !r.timed:
		case r.timer == nil:
			r.timer = time.AfterFunc(timeout, r.deadline)
		default:
			r.timer.Reset(timeout)
		}
		c.pending[id] = r
	}
	c.mu.Unlock()
	var err error
	if open {
		err = c.w.flush()
	}
	c.writeMu.Unlock()
	switch {
	case !open:
		r.err, r.reuse = ErrClosed, true
		c.loop.Post(r.post)
	case err != nil:
		c.Close() // a broken socket: fail this call and every other one now
	}
}

// Alive reports whether the connection can still carry calls. False once
// Close is called or the read side hits an error (peer gone).
func (c *TCPClient) Alive() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return !c.closed
}

// Close implements Client.
func (c *TCPClient) Close() error {
	c.mu.Lock()
	already := c.closed
	c.closed = true
	c.mu.Unlock()
	var err error
	if !already {
		err = c.conn.Close()
	}
	c.failAll(ErrClosed)
	return err
}
