package rpc

import (
	"errors"
	"sync"
	"testing"
	"time"

	"dynamo/internal/simclock"
	"dynamo/internal/wire"
)

// decodeEcho reads a LoopHandler reply the way a transport sends it: the
// reply is the handler's message already encoded, not the message itself.
func decodeEcho(m wire.Message) string {
	var out echoMsg
	if err := wire.Unmarshal(wire.Marshal(m), &out); err != nil {
		return "undecodable: " + err.Error()
	}
	return out.S
}

func TestLoopHandlerMarshalsOntoLoop(t *testing.T) {
	loop := simclock.NewWallLoop()
	defer loop.Close()

	// The wrapped handler mutates loop-confined state; LoopHandler must
	// serialize concurrent callers through the loop goroutine.
	counter := 0
	h := LoopHandler(loop, func(method string, body []byte) (wire.Message, error) {
		counter++
		if method == "boom" {
			return nil, errors.New("bad")
		}
		return &echoMsg{S: method}, nil
	})

	var wg sync.WaitGroup
	errs := make(chan error, 50)
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := h("hello", nil)
			if err != nil {
				errs <- err
				return
			}
			if decodeEcho(m) != "hello" {
				errs <- errors.New("wrong response")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if counter != 50 {
		t.Errorf("handler ran %d times", counter)
	}

	if _, err := h("boom", nil); err == nil || err.Error() != "bad" {
		t.Errorf("error not propagated: %v", err)
	}
}

func TestLoopHandlerWithSimLoop(t *testing.T) {
	// With a SimLoop, the posted work runs when the loop drains.
	loop := simclock.NewSimLoop()
	h := LoopHandler(loop, func(string, []byte) (wire.Message, error) {
		return &echoMsg{S: "ok"}, nil
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		if m, err := h("x", nil); err != nil || decodeEcho(m) != "ok" {
			t.Errorf("m=%v err=%v", m, err)
		}
	}()
	// Drain until the posted callback lands.
	deadline := time.Now().Add(2 * time.Second)
	for {
		loop.Step()
		select {
		case <-done:
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("posted handler never ran")
		}
	}
}

// TestLoopHandlerEncodesOnLoop checks that a reply is encoded on the
// handler's loop, where the handler's state lives. The handler posts a
// marker and returns a message whose MarshalWire waits a while for it:
// encoded on the loop, the marker cannot run before the encode returns;
// encoded anywhere else, the idle loop runs it during the wait.
func TestLoopHandlerEncodesOnLoop(t *testing.T) {
	loop := simclock.NewWallLoop()
	defer loop.Close()
	reply := &markerReply{marker: make(chan struct{}, 1)}
	h := LoopHandler(loop, func(string, []byte) (wire.Message, error) {
		loop.Post(func() { reply.marker <- struct{}{} })
		return reply, nil
	})
	m, err := h("x", nil)
	if err != nil {
		t.Fatal(err)
	}
	// What TCPServer does with the reply before it frames it.
	if got := decodeEcho(m); got != "ok" {
		t.Fatalf("reply decodes to %q", got)
	}
	if reply.offLoop {
		t.Fatal("the reply was encoded off the loop: the loop ran a callback during the encode")
	}
}

// markerReply encodes "ok" after waiting up to 50 ms for its marker.
type markerReply struct {
	marker  chan struct{}
	offLoop bool
}

func (m *markerReply) MarshalWire(e *wire.Encoder) {
	select {
	case <-m.marker:
		m.offLoop = true
	case <-time.After(50 * time.Millisecond):
	}
	e.String("ok")
}

func (*markerReply) UnmarshalWire(*wire.Decoder) error { return errors.New("only sent") }
