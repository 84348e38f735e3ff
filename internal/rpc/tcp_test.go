package rpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"dynamo/internal/simclock"
	"dynamo/internal/telemetry"
	"dynamo/internal/wire"
)

// echoFrames returns the frames TestTCPEcho and TestTCPRemoteError exchange:
// an echo request, its reply, and an error reply.
func echoFrames() [][]byte {
	var out [][]byte
	for _, env := range []envelope{
		{Kind: kindRequest, ID: 1, Method: "echo", Body: wire.Marshal(&echoMsg{S: "tcp"})},
		{Kind: kindResponse, ID: 1, Body: wire.Marshal(&echoMsg{S: "re:tcp"})},
		{Kind: kindResponse, ID: 2, IsErr: true, ErrMsg: "kaboom"},
	} {
		fw := frameWriter{env: env}
		fw.frame()
		out = append(out, fw.buf)
	}
	return out
}

// FuzzFrameDecode feeds arbitrary bytes — what a peer could send — to a
// connection's frame reader. It must not panic, must not grow its buffer
// past twice the bytes that arrived (a length prefix alone buys nothing),
// and every frame it decodes must re-encode and decode to itself.
func FuzzFrameDecode(f *testing.F) {
	frames := echoFrames()
	for _, fr := range frames {
		f.Add(fr)
	}
	f.Add(bytes.Join(frames, nil))
	f.Add(frames[0][:len(frames[0])-1])                                         // truncated body
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrame))                         // a claim with nothing behind it
	f.Add(append(binary.BigEndian.AppendUint32(nil, maxFrame+1), frames[1]...)) // over the limit

	f.Fuzz(func(t *testing.T, data []byte) {
		fr := newFrameReader(bytes.NewReader(data))
		for {
			env, err := fr.next()
			if bound := max(growStep, 2*len(data)); cap(fr.buf) > bound {
				t.Fatalf("%d input bytes grew the frame buffer to %d, want <= %d", len(data), cap(fr.buf), bound)
			}
			if err != nil {
				return
			}
			first := *env
			first.Body = append([]byte(nil), env.Body...)

			fw := frameWriter{env: first}
			fw.frame()
			encoded := fw.buf
			again, err := newFrameReader(bytes.NewReader(encoded)).next()
			if err != nil {
				t.Fatalf("re-decode of %+v: %v", first, err)
			}
			if again.Kind != first.Kind || again.ID != first.ID || again.Method != first.Method ||
				again.IsErr != first.IsErr || again.ErrMsg != first.ErrMsg || !bytes.Equal(again.Body, first.Body) {
				t.Fatalf("decoded %+v, re-decoded %+v", first, *again)
			}
			fw = frameWriter{env: *again}
			fw.frame()
			if !bytes.Equal(fw.buf, encoded) {
				t.Fatalf("re-encoding is not a fixed point: %x then %x", encoded, fw.buf)
			}
		}
	})
}

// loopReader reads b over and over: a connection that never runs dry.
type loopReader struct {
	b   []byte
	off int
}

func (r *loopReader) Read(p []byte) (int, error) {
	n := copy(p, r.b[r.off:])
	r.off = (r.off + n) % len(r.b)
	return n, nil
}

// requestStream frames one request per method, in order.
func requestStream(methods ...string) []byte {
	var out []byte
	for i, m := range methods {
		fw := frameWriter{env: envelope{Kind: kindRequest, ID: uint64(i + 1), Method: m, Body: []byte{1, 2, 3}}}
		fw.frame()
		out = append(out, fw.buf...)
	}
	return out
}

// TestFrameReaderMethodAllocs: a connection whose requests alternate
// between methods, as a leaf's pulls and cap commands do, decodes each
// name once; after that a frame allocates nothing. Past keepMethods names
// every frame still decodes its own.
func TestFrameReaderMethodAllocs(t *testing.T) {
	methods := []string{"Agent.ReadPower", "Agent.SetCap", "Agent.ReadPower", "Agent.ClearCap"}
	fr := newFrameReader(&loopReader{b: requestStream(methods...)})
	read := func() {
		for _, want := range methods {
			env, err := fr.next()
			if err != nil || env.Method != want || len(env.Body) != 3 {
				t.Fatalf("decoded %q (%d-byte body), %v; want %q", env.Method, len(env.Body), err, want)
			}
		}
	}
	read()
	if n := testing.AllocsPerRun(1000, read); n != 0 {
		t.Errorf("%d alternating frames allocate %v times, want 0", len(methods), n)
	}

	many := make([]string, 2*keepMethods)
	for i := range many {
		many[i] = fmt.Sprintf("Method%d", i)
	}
	fr = newFrameReader(&loopReader{b: requestStream(many...)})
	for range 2 {
		for _, want := range many {
			if env, err := fr.next(); err != nil || env.Method != want {
				t.Fatalf("decoded %q, %v; want %q", env.Method, err, want)
			}
		}
	}
}

// TestFrameBuffersBounded: a length prefix buys the sender no memory ahead
// of its bytes, and a large frame's buffer is released once it is read.
func TestFrameBuffersBounded(t *testing.T) {
	claim := append(binary.BigEndian.AppendUint32(nil, maxFrame), make([]byte, 1000)...)
	fr := newFrameReader(bytes.NewReader(claim))
	if _, err := fr.next(); err == nil {
		t.Fatal("a truncated frame decoded")
	}
	if cap(fr.buf) > 2048 {
		t.Fatalf("1000 bytes of a %d-byte claim grew the buffer to %d", maxFrame, cap(fr.buf))
	}

	var b bytes.Buffer
	fw := frameWriter{w: &b, env: envelope{Kind: kindRequest, ID: 1, Method: "Store.Adopt", Body: make([]byte, 4*keepFrame)}}
	fw.frame()
	if err := fw.flush(); err != nil {
		t.Fatal(err)
	}
	if fw.buf != nil {
		t.Fatalf("writer kept a %d-byte frame buffer", cap(fw.buf))
	}
	b.Write(echoFrames()[0])
	fr = newFrameReader(&b)
	if env, err := fr.next(); err != nil || len(env.Body) != 4*keepFrame {
		t.Fatalf("large frame: %v", err)
	}
	if env, err := fr.next(); err != nil || env.Method != "echo" {
		t.Fatalf("frame after the large one: %v", err)
	}
	if cap(fr.buf) > keepFrame {
		t.Fatalf("reader kept a %d-byte buffer after a large frame", cap(fr.buf))
	}
}

// TestTCPPooledCallRaces puts deadlines and replies on top of each other:
// the handler takes 0–2 ms, calls time out after 1 ms. Every done must run
// exactly once, never before its deadline with ErrTimeout, and every
// success must carry its own request's payload — no record may be completed
// by a stale timer or by another call's reply. Every timed-out call is
// answered eventually, so the late counter must end equal to the timeouts.
func TestTCPPooledCallRaces(t *testing.T) {
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(1))
	srv := NewTCPServer(func(_ string, body []byte) (wire.Message, error) {
		mu.Lock()
		d := time.Duration(rng.Int63n(int64(2 * time.Millisecond)))
		mu.Unlock()
		time.Sleep(d)
		var m echoMsg
		if err := wire.Unmarshal(body, &m); err != nil {
			return nil, err
		}
		return &echoMsg{S: "re:" + m.S}, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	loop := simclock.NewWallLoop()
	defer loop.Close()

	const conns, perConn, timeout = 4, 250, time.Millisecond
	sink := telemetry.NewSink()
	clients := make([]*TCPClient, conns)
	for i := range clients {
		if clients[i], err = DialTCP(addr, loop); err != nil {
			t.Fatal(err)
		}
		clients[i].SetTelemetry(sink)
		defer clients[i].Close()
	}
	late := sink.Counter("dynamo_rpc_late_responses_total", "side", "client", "transport", "tcp")

	// Loop-confined.
	pause := rand.New(rand.NewSource(2))
	completions := make([]int, conns*perConn)
	var ok, timeouts int
	remaining := conns
	all := make(chan struct{})
	var issue func(ci, k int)
	issue = func(ci, k int) {
		idx := ci*perConn + k
		want := fmt.Sprint("re:", idx)
		start := time.Now()
		clients[ci].Call("echo", &echoMsg{S: fmt.Sprint(idx)}, timeout, func(resp []byte, err error) {
			if completions[idx]++; completions[idx] > 1 {
				t.Errorf("call %d completed %d times (err %v)", idx, completions[idx], err)
				return
			}
			switch {
			case err == nil:
				var m echoMsg
				if derr := wire.Unmarshal(resp, &m); derr != nil || m.S != want {
					t.Errorf("call %d got %q (%v), want %q", idx, m.S, derr, want)
				}
				ok++
			case errors.Is(err, ErrTimeout):
				if el := time.Since(start); el < timeout {
					t.Errorf("call %d timed out after %v, before its %v deadline", idx, el, timeout)
				}
				timeouts++
			default:
				t.Errorf("call %d: %v", idx, err)
			}
			switch {
			case k+1 == perConn:
				if remaining--; remaining == 0 {
					close(all)
				}
			case err != nil:
				// The server is still busy with this request. Wait up to
				// its longest delay, so that backlog stays bounded and the
				// late reply sometimes lands while the next call is in
				// flight.
				loop.After(time.Duration(pause.Int63n(int64(2*time.Millisecond))), func() { issue(ci, k+1) })
			default:
				issue(ci, k+1)
			}
		})
	}
	loop.Post(func() {
		for ci := range clients {
			issue(ci, 0)
		}
	})
	select {
	case <-all:
	case <-time.After(30 * time.Second):
		t.Fatal("calls did not all complete")
	}
	t.Logf("%d answered in time, %d timed out", ok, timeouts)
	if ok == 0 || timeouts == 0 {
		t.Fatalf("%d successes and %d timeouts: deadlines did not straddle replies", ok, timeouts)
	}
	deadline := time.Now().Add(10 * time.Second)
	for late.Value() < uint64(timeouts) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := late.Value(); got != uint64(timeouts) {
		t.Fatalf("late responses %d, want one per timeout (%d)", got, timeouts)
	}
}

// pinger drives a closed loop of calls from its own completion callback,
// bound once, so that the loop allocates nothing of its own.
type pinger struct {
	cl       *TCPClient
	req      wire.Message
	want     []byte
	left     int
	bad      int
	onDone   func([]byte, error)
	finished chan struct{}
}

func (p *pinger) done(resp []byte, err error) {
	if err != nil || !bytes.Equal(resp, p.want) {
		p.bad++
	}
	if p.left--; p.left == 0 {
		p.finished <- struct{}{}
		return
	}
	p.cl.Call("echo", p.req, 5*time.Second, p.onDone)
}

// TestTCPSteadyStateAllocs pins what a call costs on the real transport:
// a loopback echo through LoopHandler with a preallocated response must
// allocate at most once per call, client and server together.
func TestTCPSteadyStateAllocs(t *testing.T) {
	srvLoop := simclock.NewWallLoop()
	defer srvLoop.Close()
	pong := &echoMsg{S: "pong"}
	srv := NewTCPServer(LoopHandler(srvLoop, func(string, []byte) (wire.Message, error) { return pong, nil }))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	loop := simclock.NewWallLoop()
	defer loop.Close()
	cl, err := DialTCP(addr, loop)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	p := &pinger{cl: cl, req: &echoMsg{S: "ping"}, want: wire.Marshal(pong), finished: make(chan struct{}, 1)}
	p.onDone = p.done
	start := func() { p.cl.Call("echo", p.req, 5*time.Second, p.onDone) }
	run := func(n int) {
		p.left = n
		loop.Post(start)
		<-p.finished
	}
	run(1000)
	const calls = 10000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	run(calls)
	runtime.ReadMemStats(&m1)
	if p.bad != 0 {
		t.Fatalf("%d calls failed or returned the wrong bytes", p.bad)
	}
	if per := float64(m1.Mallocs-m0.Mallocs) / calls; per > 1 {
		t.Fatalf("%.2f allocations per call, want <= 1", per)
	}
}
