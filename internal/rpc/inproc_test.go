package rpc

import (
	"errors"
	"fmt"
	"testing"
	"time"
	"unsafe"

	"dynamo/internal/simclock"
	"dynamo/internal/wire"
)

// freeRecords counts the records on the network's free list.
func freeRecords(n *Network) int {
	c := 0
	for r := n.free; r != nil; r = r.next {
		c++
	}
	return c
}

// TestCallRecordSize keeps the record in the 128-byte class: the free list
// grows to the fleet's peak in-flight calls and stays there. Its steps run
// from bursts, so it embeds no timer.
func TestCallRecordSize(t *testing.T) {
	if s := unsafe.Sizeof(call{}); s > 128 {
		t.Fatalf("call record is %d bytes, want <= 128", s)
	}
}

// TestRecordNotRecycledWhileEventsQueued times a call out before its
// request is even delivered. The caller is told at once, but the record
// must stay out of the free list — and out of the hands of the next call —
// until its delivery and reply events have run; the handler still runs for
// the request that was sent; and the late reply completes nothing twice.
func TestRecordNotRecycledWhileEventsQueued(t *testing.T) {
	loop := simclock.NewSimLoop()
	n := NewNetwork(loop, 10*time.Millisecond, 1)
	var served []string
	n.Register("a1", func(method string, body []byte) (wire.Message, error) {
		var m echoMsg
		if err := wire.Unmarshal(body, &m); err != nil {
			return nil, err
		}
		served = append(served, m.S)
		return &echoMsg{S: "re:" + m.S}, nil
	})
	cl := n.Dial("a1")

	var firstErrs []error
	cl.Call("echo", &echoMsg{S: "first"}, 5*time.Millisecond, func(_ []byte, err error) {
		firstErrs = append(firstErrs, err)
	})
	loop.RunUntil(6 * time.Millisecond)
	if len(firstErrs) != 1 || !errors.Is(firstErrs[0], ErrTimeout) {
		t.Fatalf("at 6ms first call outcomes = %v, want one ErrTimeout", firstErrs)
	}
	if got := freeRecords(n); got != 0 {
		t.Fatalf("timed-out call's record is on the free list (%d free) with its delivery still queued", got)
	}

	// A second call issued now must not share the first one's record: the
	// first's delivery (10ms) and reply (20ms) land while it is in flight.
	var second string
	var secondErr error
	calls := 0
	cl.Call("echo", &echoMsg{S: "second"}, time.Second, func(resp []byte, err error) {
		calls++
		var m echoMsg
		secondErr = Decode(resp, err, &m)
		second = m.S
	})
	loop.RunUntil(15 * time.Millisecond)
	if len(served) != 1 || served[0] != "first" {
		t.Fatalf("at 15ms handler served %v, want the timed-out request [first]", served)
	}
	if got := freeRecords(n); got != 0 {
		t.Fatalf("%d records free at 15ms, want 0: first awaits its reply event, second its delivery", got)
	}
	loop.Drain()
	if len(firstErrs) != 1 {
		t.Fatalf("first call completed %d times: %v", len(firstErrs), firstErrs)
	}
	if calls != 1 || secondErr != nil || second != "re:second" {
		t.Fatalf("second call: %d completions, err %v, resp %q; want one, nil, re:second", calls, secondErr, second)
	}
	if got := freeRecords(n); got != 2 {
		t.Fatalf("%d records free after both calls finished, want 2", got)
	}
}

// TestRecordReleasePaths walks every way a call can end and checks the
// record comes back exactly once each time (a leak would grow the count of
// records made; a double release would corrupt the list).
func TestRecordReleasePaths(t *testing.T) {
	loop := simclock.NewSimLoop()
	n := NewNetwork(loop, time.Millisecond, 1)
	n.Register("a1", echoHandler)
	is := func(want error) func(error) bool {
		return func(err error) bool { return errors.Is(err, want) }
	}
	cases := []struct {
		name, addr, method string
		timeout            time.Duration
		ok                 func(error) bool
	}{
		{"reply", "a1", "echo", time.Second, func(err error) bool { return err == nil }},
		{"remote error", "a1", "boom", time.Second, func(err error) bool {
			var re *RemoteError
			return errors.As(err, &re)
		}},
		{"no endpoint", "nobody", "echo", time.Second, is(ErrUnreachable)},
		{"no endpoint, no deadline", "nobody", "echo", 0, is(ErrUnreachable)},
		{"deadline before reply", "a1", "echo", 1500 * time.Microsecond, is(ErrTimeout)},
	}
	for _, tc := range cases {
		done := 0
		var got error
		n.Dial(tc.addr).Call(tc.method, &echoMsg{S: "x"}, tc.timeout, func(_ []byte, err error) {
			done++
			got = err
		})
		loop.Drain()
		if done != 1 || !tc.ok(got) {
			t.Errorf("%s: done invoked %d times, err = %v", tc.name, done, got)
		}
		if free := freeRecords(n); free != 1 {
			t.Fatalf("%s: %d records on the free list afterwards, want the one record reused throughout", tc.name, free)
		}
	}
}

// TestInProcOnWallLoop runs the pooled path in real time (the suite daemon
// does: its intra-process network sits on a WallLoop): the second call
// reuses the first call's record and burst timers, is still in flight
// when the first call's 100 ms timeout would have passed, and completes
// with its own reply.
func TestInProcOnWallLoop(t *testing.T) {
	loop := simclock.NewWallLoop()
	defer loop.Close()
	n := NewNetwork(loop, 40*time.Millisecond, 1)
	n.Register("a1", echoHandler)
	cl := n.Dial("a1")
	results := make(chan string, 2)
	report := func(resp []byte, err error) {
		var m echoMsg
		if derr := Decode(resp, err, &m); derr != nil {
			results <- derr.Error()
			return
		}
		results <- m.S
	}
	loop.Post(func() {
		cl.Call("echo", &echoMsg{S: "one"}, 100*time.Millisecond, func(resp []byte, err error) {
			report(resp, err)
			// Posted, so the first call's record is back on the free list.
			loop.Post(func() { cl.Call("echo", &echoMsg{S: "two"}, 10*time.Second, report) })
		})
	})
	for _, want := range []string{"re:one", "re:two"} {
		select {
		case got := <-results:
			if got != want {
				t.Fatalf("got %q, want %q", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no result for %q", want)
		}
	}
	var free int
	loop.Call(func() { free = freeRecords(n) })
	if free != 1 {
		t.Fatalf("%d records on the free list, want the one record both calls used", free)
	}
}

// TestDeadlineArmedOnlyWhenItCanFire covers the three timeout regimes. The
// reply lands 2×latency after the call, so a longer deadline is never
// armed; one of exactly 2×latency is armed first and wins the tie; a
// shorter one fires while the request is in flight, and the record waits
// for the reply before it is freed.
func TestDeadlineArmedOnlyWhenItCanFire(t *testing.T) {
	const lat = 10 * time.Millisecond
	cases := []struct {
		name        string
		timeout     time.Duration
		pending     int // queued events right after Call
		wantErr     error
		doneAt      time.Duration
		freedAtDone bool
	}{
		{"timeout > 2L", 2*lat + 1, 1, nil, 2 * lat, true},
		{"timeout == 2L", 2 * lat, 2, ErrTimeout, 2 * lat, true},
		{"L < timeout < 2L", 3 * lat / 2, 2, ErrTimeout, 3 * lat / 2, false},
	}
	for _, tc := range cases {
		loop := simclock.NewSimLoop()
		n := NewNetwork(loop, lat, 1)
		served := 0
		n.Register("a1", func(method string, body []byte) (wire.Message, error) {
			served++
			return echoHandler(method, body)
		})
		var errs []error
		var doneAt time.Duration
		n.Dial("a1").Call("echo", &echoMsg{S: "x"}, tc.timeout, func(_ []byte, err error) {
			errs = append(errs, err)
			doneAt = loop.Now()
		})
		if got := loop.Pending(); got != tc.pending {
			t.Errorf("%s: Pending = %d after Call, want %d", tc.name, got, tc.pending)
		}
		loop.RunUntil(tc.doneAt)
		if len(errs) != 1 || !errors.Is(errs[0], tc.wantErr) || doneAt != tc.doneAt {
			t.Fatalf("%s: done %v at %v, want [%v] at %v", tc.name, errs, doneAt, tc.wantErr, tc.doneAt)
		}
		if served != 1 {
			t.Errorf("%s: handler ran %d times by %v, want 1", tc.name, served, tc.doneAt)
		}
		if free := freeRecords(n); (free == 1) != tc.freedAtDone {
			t.Errorf("%s: %d records free when done ran, want freed=%v", tc.name, free, tc.freedAtDone)
		}
		loop.Drain()
		if len(errs) != 1 || freeRecords(n) != 1 || loop.Pending() != 0 {
			t.Errorf("%s: after Drain done ran %d times, %d records free, Pending %d; want 1, 1, 0",
				tc.name, len(errs), freeRecords(n), loop.Pending())
		}
	}
}

// TestDeliveryFollowsRegistry checks the client's cached handler against
// Register and Unregister: a replacement takes effect at the next delivery,
// even for a call already in flight, and so does an Unregister.
func TestDeliveryFollowsRegistry(t *testing.T) {
	loop := simclock.NewSimLoop()
	n := NewNetwork(loop, time.Millisecond, 1)
	tag := func(name string) Handler {
		return func(string, []byte) (wire.Message, error) { return &echoMsg{S: name}, nil }
	}
	cl := n.Dial("a1")
	var got []string
	call := func() {
		cl.Call("echo", Empty, time.Second, func(resp []byte, err error) {
			var m echoMsg
			if err := Decode(resp, err, &m); err != nil {
				got = append(got, err.Error())
				return
			}
			got = append(got, m.S)
		})
	}
	n.Register("a1", tag("one"))
	call()
	loop.Drain()
	n.Register("a1", tag("two")) // replaced after a delivery cached "one"
	call()
	loop.Drain()
	call()
	n.Register("a1", tag("three")) // replaced while the call is in flight
	loop.Drain()
	call()
	n.Unregister("a1") // gone while the call is in flight
	loop.Drain()
	want := []string{"one", "two", "three", ErrUnreachable.Error()}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("replies %q, want %q", got, want)
	}
}
