package rpc

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dynamo/internal/simclock"
	"dynamo/internal/wire"
)

type echoMsg struct{ S string }

func (m *echoMsg) MarshalWire(e *wire.Encoder)         { e.String(m.S) }
func (m *echoMsg) UnmarshalWire(d *wire.Decoder) error { m.S = d.String(); return d.Err() }

func echoHandler(method string, body []byte) (wire.Message, error) {
	switch method {
	case "echo":
		var m echoMsg
		if err := wire.Unmarshal(body, &m); err != nil {
			return nil, err
		}
		return &echoMsg{S: "re:" + m.S}, nil
	case "boom":
		return nil, errors.New("kaboom")
	default:
		return nil, fmt.Errorf("unknown method %q", method)
	}
}

func TestInProcEcho(t *testing.T) {
	loop := simclock.NewSimLoop()
	n := NewNetwork(loop, 5*time.Millisecond, 1)
	n.Register("a1", echoHandler)
	cl := n.Dial("a1")

	var got string
	var gotErr error
	cl.Call("echo", &echoMsg{S: "hi"}, time.Second, func(resp []byte, err error) {
		gotErr = err
		var m echoMsg
		if err == nil {
			gotErr = wire.Unmarshal(resp, &m)
			got = m.S
		}
	})
	loop.Drain()
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	if got != "re:hi" {
		t.Errorf("got %q", got)
	}
	// Two one-way latencies.
	if loop.Now() < 10*time.Millisecond {
		t.Errorf("completed at %v, want >= 10ms", loop.Now())
	}
}

func TestInProcRemoteError(t *testing.T) {
	loop := simclock.NewSimLoop()
	n := NewNetwork(loop, 0, 1)
	n.Register("a1", echoHandler)
	cl := n.Dial("a1")
	var gotErr error
	cl.Call("boom", Empty, time.Second, func(_ []byte, err error) { gotErr = err })
	loop.Drain()
	var re *RemoteError
	if !errors.As(gotErr, &re) || re.Msg != "kaboom" {
		t.Fatalf("err = %v, want RemoteError kaboom", gotErr)
	}
}

func TestInProcUnreachable(t *testing.T) {
	loop := simclock.NewSimLoop()
	n := NewNetwork(loop, 0, 1)
	cl := n.Dial("ghost")
	var gotErr error
	cl.Call("echo", Empty, time.Second, func(_ []byte, err error) { gotErr = err })
	loop.Drain()
	if !errors.Is(gotErr, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", gotErr)
	}
}

func TestInProcExactlyOnceCompletion(t *testing.T) {
	loop := simclock.NewSimLoop()
	n := NewNetwork(loop, 50*time.Millisecond, 1)
	n.Register("a1", echoHandler)
	cl := n.Dial("a1")
	calls := 0
	// Timeout fires at 60ms; response arrives at 100ms: only one wins.
	cl.Call("echo", &echoMsg{S: "x"}, 60*time.Millisecond, func(_ []byte, err error) { calls++ })
	loop.Drain()
	if calls != 1 {
		t.Fatalf("done invoked %d times", calls)
	}
}

func TestInProcClosedClient(t *testing.T) {
	loop := simclock.NewSimLoop()
	n := NewNetwork(loop, 0, 1)
	n.Register("a1", echoHandler)
	cl := n.Dial("a1")
	cl.Close()
	var gotErr error
	cl.Call("echo", Empty, time.Second, func(_ []byte, err error) { gotErr = err })
	loop.Drain()
	if !errors.Is(gotErr, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", gotErr)
	}
}

func TestInProcUnregister(t *testing.T) {
	loop := simclock.NewSimLoop()
	n := NewNetwork(loop, 0, 1)
	n.Register("a1", echoHandler)
	n.Unregister("a1")
	cl := n.Dial("a1")
	var gotErr error
	cl.Call("echo", Empty, time.Second, func(_ []byte, err error) { gotErr = err })
	loop.Drain()
	if !errors.Is(gotErr, ErrUnreachable) {
		t.Fatalf("err = %v", gotErr)
	}
}

func TestInProcFanOut(t *testing.T) {
	// A leaf controller broadcasts to hundreds of agents in one cycle.
	loop := simclock.NewSimLoop()
	n := NewNetwork(loop, time.Millisecond, 1)
	const N = 500
	for i := 0; i < N; i++ {
		n.Register(fmt.Sprintf("agent%d", i), echoHandler)
	}
	got := 0
	for i := 0; i < N; i++ {
		cl := n.Dial(fmt.Sprintf("agent%d", i))
		cl.Call("echo", &echoMsg{S: "x"}, time.Second, func(_ []byte, err error) {
			if err == nil {
				got++
			}
		})
	}
	loop.Drain()
	if got != N {
		t.Fatalf("fan-out completed %d/%d", got, N)
	}
	if loop.Now() > 10*time.Millisecond {
		t.Errorf("broadcast should overlap: finished at %v", loop.Now())
	}
}

func TestTCPEcho(t *testing.T) {
	srv := NewTCPServer(echoHandler)
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

	done := make(chan string, 1)
	loop.Post(func() {
		cl.Call("echo", &echoMsg{S: "tcp"}, 5*time.Second, func(resp []byte, err error) {
			if err != nil {
				done <- "err:" + err.Error()
				return
			}
			var m echoMsg
			if err := wire.Unmarshal(resp, &m); err != nil {
				done <- "err:" + err.Error()
				return
			}
			done <- m.S
		})
	})
	select {
	case got := <-done:
		if got != "re:tcp" {
			t.Fatalf("got %q", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("tcp echo timed out")
	}
}

func TestTCPRemoteError(t *testing.T) {
	srv := NewTCPServer(echoHandler)
	addr, _ := srv.Listen("127.0.0.1:0")
	defer srv.Close()
	loop := simclock.NewWallLoop()
	defer loop.Close()
	cl, err := DialTCP(addr, loop)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	done := make(chan error, 1)
	loop.Post(func() {
		cl.Call("boom", Empty, 5*time.Second, func(_ []byte, err error) { done <- err })
	})
	err = <-done
	var re *RemoteError
	if !errors.As(err, &re) || re.Msg != "kaboom" {
		t.Fatalf("err = %v", err)
	}
}

func TestTCPConcurrentCalls(t *testing.T) {
	srv := NewTCPServer(echoHandler)
	addr, _ := srv.Listen("127.0.0.1:0")
	defer srv.Close()
	loop := simclock.NewWallLoop()
	defer loop.Close()
	cl, err := DialTCP(addr, loop)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const N = 100
	var wg sync.WaitGroup
	wg.Add(N)
	errs := make(chan error, N)
	loop.Post(func() {
		for i := 0; i < N; i++ {
			i := i
			cl.Call("echo", &echoMsg{S: fmt.Sprint(i)}, 5*time.Second, func(resp []byte, err error) {
				defer wg.Done()
				if err != nil {
					errs <- err
					return
				}
				var m echoMsg
				if err := wire.Unmarshal(resp, &m); err != nil || m.S != "re:"+fmt.Sprint(i) {
					errs <- fmt.Errorf("bad response %q err %v", m.S, err)
				}
			})
		}
	})
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestTCPClientCloseFailsPending(t *testing.T) {
	// A server that never responds until released. The release must be
	// deferred after srv.Close (LIFO) so Close's handler-wait can finish.
	release := make(chan struct{})
	srv := NewTCPServer(func(string, []byte) (wire.Message, error) {
		<-release
		return nil, nil
	})
	addr, _ := srv.Listen("127.0.0.1:0")
	defer srv.Close()
	defer close(release)
	loop := simclock.NewWallLoop()
	defer loop.Close()
	cl, err := DialTCP(addr, loop)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	loop.Post(func() {
		cl.Call("echo", &echoMsg{S: "x"}, 0, func(_ []byte, err error) { done <- err })
	})
	time.Sleep(50 * time.Millisecond)
	cl.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending call not failed on close")
	}
}

func TestTCPTimeout(t *testing.T) {
	srv := NewTCPServer(func(string, []byte) (wire.Message, error) {
		time.Sleep(2 * time.Second)
		return &echoMsg{}, nil
	})
	addr, _ := srv.Listen("127.0.0.1:0")
	defer srv.Close()
	loop := simclock.NewWallLoop()
	defer loop.Close()
	cl, err := DialTCP(addr, loop)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	done := make(chan error, 1)
	loop.Post(func() {
		cl.Call("echo", &echoMsg{S: "x"}, 50*time.Millisecond, func(_ []byte, err error) { done <- err })
	})
	select {
	case err := <-done:
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("err = %v, want ErrTimeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no timeout delivered")
	}
}

func TestDecodeHelper(t *testing.T) {
	buf := wire.Marshal(&echoMsg{S: "z"})
	var m echoMsg
	if err := Decode(buf, nil, &m); err != nil || m.S != "z" {
		t.Fatalf("decode: %v %q", err, m.S)
	}
	if err := Decode(nil, ErrTimeout, &m); !errors.Is(err, ErrTimeout) {
		t.Fatal("Decode should propagate errors")
	}
}
