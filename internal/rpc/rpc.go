// Package rpc is Dynamo's communication layer — the stand-in for Thrift
// (paper §III-A). It provides an asynchronous request/response client
// abstraction with two transports:
//
//   - InProc: a deterministic in-memory transport routed through a
//     simclock.Loop, with configurable latency. All simulation experiments
//     use it, so runs are reproducible. Drops, delays and partitions are
//     injected around it by internal/faults.
//   - TCP: a framed binary protocol over real sockets, used by the
//     dynamo-agentd / dynamo-suited daemons and integration tests.
//
// Both transports deliver completion callbacks on the caller's event loop,
// so controller logic is single-threaded regardless of transport.
package rpc

import (
	"errors"
	"fmt"
	"time"

	"dynamo/internal/simclock"
	"dynamo/internal/wire"
)

// ErrTimeout is delivered when a call's deadline elapses.
var ErrTimeout = errors.New("rpc: call timed out")

// ErrUnreachable is delivered when nothing answers at the destination (no
// in-proc endpoint, a refused or failed TCP connection).
var ErrUnreachable = errors.New("rpc: destination unreachable")

// ErrClosed is delivered for calls on a closed client.
var ErrClosed = errors.New("rpc: client closed")

// RemoteError wraps an application-level error returned by the remote
// handler.
type RemoteError struct {
	Method string
	Msg    string
}

// Error implements error.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("rpc: remote error from %s: %s", e.Method, e.Msg)
}

// Handler serves requests at an endpoint. It decodes the body itself
// (methods are strings like "Agent.ReadPower") and returns the response
// message, or an error that travels back to the caller as a RemoteError.
// body belongs to the transport and is valid only until the handler
// returns. The returned message is valid until the handler is next
// invoked, so a handler may return one reply it keeps and rewrites: every
// transport encodes it first (the in-proc network at delivery, LoopHandler
// on the handler's loop).
type Handler func(method string, body []byte) (wire.Message, error)

// Client issues asynchronous calls to a single endpoint.
type Client interface {
	// Call sends req to the remote method. Exactly one of the done
	// outcomes is delivered, on the client's event loop: (respBody, nil)
	// on success or (nil, err) on failure/timeout. timeout <= 0 means no
	// deadline.
	//
	// resp is valid only until done returns: both transports hand out
	// the buffer of a pooled call record and reuse it for a later call.
	// Decode it inside done (Decode does), or copy the bytes to keep them.
	Call(method string, req wire.Message, timeout time.Duration, done func(resp []byte, err error))
	// Close releases the client; in-flight calls fail with ErrClosed.
	Close() error
}

// Decode is a convenience for completion callbacks: it unmarshals resp
// into m unless err is already set.
func Decode(resp []byte, err error, m wire.Message) error {
	if err != nil {
		return err
	}
	return wire.Unmarshal(resp, m)
}

// LoopHandler wraps a loop-confined handler (controllers and agents are
// single-threaded on their event loop) so it can be served by transports
// that dispatch from other goroutines (TCPServer): h runs, and its reply is
// encoded, on the loop while the caller's goroutine waits. A request rides
// a pooled record, made once with its channel and loop callback, which is
// also the returned message; TCPServer puts it back once it is framed.
func LoopHandler(loop simclock.Loop, h Handler) Handler {
	// Idle records. TCPServer serves a connection's requests in order, so a
	// daemon needs one per connection it serves — a parent controller, a
	// state-store peer, a handful. Past 16, records are made and dropped.
	free := make(chan *loopCall, 16)
	return func(method string, body []byte) (wire.Message, error) {
		var c *loopCall
		select {
		case c = <-free:
		default:
			c = &loopCall{done: make(chan struct{}, 1), free: free}
			c.run = func() {
				var m wire.Message
				if m, c.err = h(c.method, c.body); c.err == nil && m != nil {
					c.reply = c.enc.AppendMarshal(c.reply, m)
				}
				c.done <- struct{}{}
			}
		}
		c.method, c.body = method, body
		loop.Post(c.run)
		<-c.done
		if err := c.err; err != nil {
			c.release()
			return nil, err
		}
		return c, nil
	}
}

// loopCall carries one request onto the loop and its encoded reply back.
type loopCall struct {
	method string
	body   []byte
	enc    wire.Encoder
	reply  []byte
	err    error
	done   chan struct{}
	free   chan *loopCall // its pool
	run    func()         // made once per record
}

// MarshalWire and UnmarshalWire implement wire.Message: a record marshals
// as the reply h encoded, and is only ever sent.
func (c *loopCall) MarshalWire(e *wire.Encoder) { e.Raw(c.reply) }
func (*loopCall) UnmarshalWire(*wire.Decoder) error {
	return errors.New("rpc: a loop reply is only sent")
}

// release empties the record and returns it to its pool.
func (c *loopCall) release() {
	c.method, c.body, c.reply, c.err = "", nil, reuse(c.reply), nil
	select {
	case c.free <- c:
	default:
	}
}

// empty is a zero-field message usable for requests with no arguments.
type empty struct{}

// MarshalWire implements wire.Message.
func (empty) MarshalWire(*wire.Encoder) {}

// UnmarshalWire implements wire.Message.
func (empty) UnmarshalWire(*wire.Decoder) error { return nil }

// Empty is a reusable zero-payload message.
var Empty wire.Message = empty{}
