package rpc

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"dynamo/internal/simclock"
	"dynamo/internal/telemetry"
	"dynamo/internal/wire"
)

// flakyClient fails the first failN calls with failErr, then succeeds.
// Completions are posted through the loop like a real transport.
type flakyClient struct {
	loop    *simclock.SimLoop
	failN   int
	failErr error
	calls   int
	// failDelay is how long a failing call takes to report (a timeout
	// consumes its whole deadline).
	useDeadline bool
}

func (c *flakyClient) Call(method string, req wire.Message, timeout time.Duration, done func([]byte, error)) {
	c.calls++
	if c.calls <= c.failN {
		d := time.Millisecond
		if c.useDeadline && timeout > 0 {
			d = timeout
		}
		c.loop.After(d, func() { done(nil, c.failErr) })
		return
	}
	c.loop.After(time.Millisecond, func() { done([]byte{1}, nil) })
}

func (c *flakyClient) Close() error { return nil }

func runRetry(t *testing.T, loop *simclock.SimLoop, c Client, timeout time.Duration, p RetryPolicy) (resp []byte, err error, elapsed time.Duration) {
	t.Helper()
	start := loop.Now()
	got := false
	loop.Post(func() {
		NewRetrier(loop, p).Call(c, "M", "peer1", Empty, timeout, func(r []byte, e error) {
			got, resp, err, elapsed = true, r, e, loop.Now()-start
		})
	})
	for i := 0; i < 1_000_000 && !got; i++ {
		if !loop.Step() {
			break
		}
	}
	if !got {
		t.Fatalf("the retried call never completed")
	}
	return resp, err, elapsed
}

func TestCallRetrySucceedsAfterFailures(t *testing.T) {
	loop := simclock.NewSimLoop()
	c := &flakyClient{loop: loop, failN: 2, failErr: ErrTimeout}
	retried := 0
	resp, err, _ := runRetry(t, loop, c, time.Second, RetryPolicy{
		MaxRetries: 3,
		Backoff:    10 * time.Millisecond,
		OnRetry:    func(key, method string, attempt int, err error) { retried++ },
	})
	if err != nil || len(resp) != 1 {
		t.Fatalf("want success after retries, got (%v, %v)", resp, err)
	}
	if c.calls != 3 || retried != 2 {
		t.Fatalf("calls=%d retried=%d, want 3 and 2", c.calls, retried)
	}
}

func TestCallRetryExhaustsAttempts(t *testing.T) {
	loop := simclock.NewSimLoop()
	c := &flakyClient{loop: loop, failN: 10, failErr: ErrTimeout}
	_, err, _ := runRetry(t, loop, c, time.Second, RetryPolicy{MaxRetries: 2, Backoff: 10 * time.Millisecond})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout after exhausting retries, got %v", err)
	}
	if c.calls != 3 {
		t.Fatalf("calls=%d, want 3 (1 + 2 retries)", c.calls)
	}
}

func TestCallRetryNonRetryableErrorStops(t *testing.T) {
	loop := simclock.NewSimLoop()
	remote := &RemoteError{Method: "M", Msg: "boom"}
	c := &flakyClient{loop: loop, failN: 10, failErr: remote}
	_, err, _ := runRetry(t, loop, c, time.Second, RetryPolicy{MaxRetries: 3, Backoff: 10 * time.Millisecond})
	if !errors.Is(err, remote) {
		t.Fatalf("want remote error surfaced, got %v", err)
	}
	if c.calls != 1 {
		t.Fatalf("remote error was retried: %d calls", c.calls)
	}
	c2 := &flakyClient{loop: loop, failN: 10, failErr: ErrClosed}
	_, err, _ = runRetry(t, loop, c2, time.Second, RetryPolicy{MaxRetries: 3, Backoff: 10 * time.Millisecond})
	if !errors.Is(err, ErrClosed) || c2.calls != 1 {
		t.Fatalf("ErrClosed was retried: %d calls, err %v", c2.calls, err)
	}
}

// TestCallRetryBudget verifies the total-time budget clips per-attempt
// timeouts and forbids attempts that cannot finish in time.
func TestCallRetryBudget(t *testing.T) {
	loop := simclock.NewSimLoop()
	c := &flakyClient{loop: loop, failN: 100, failErr: ErrTimeout, useDeadline: true}
	_, err, elapsed := runRetry(t, loop, c, 300*time.Millisecond, RetryPolicy{
		MaxRetries: 10,
		Backoff:    50 * time.Millisecond,
		Budget:     500 * time.Millisecond,
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("budget overrun: %v spent against a 500ms budget", elapsed)
	}
	if c.calls < 2 {
		t.Fatalf("budget admitted only %d attempts; want at least 2", c.calls)
	}
}

// TestCallRetryBackoffDeterministic checks jittered backoff schedules
// are a pure function of (seed, key, method, attempt).
func TestCallRetryBackoffDeterministic(t *testing.T) {
	p := NewRetrier(nil, RetryPolicy{MaxRetries: 5, Backoff: 40 * time.Millisecond, JitterFrac: 0.3, Seed: 7}).p
	for n := 0; n < 5; n++ {
		a := p.backoff("peer1", "M", n)
		b := p.backoff("peer1", "M", n)
		if a != b {
			t.Fatalf("backoff for attempt %d not deterministic: %v vs %v", n, a, b)
		}
		lo := time.Duration(float64(p.Backoff) * 0.69)
		if a < lo || a > p.BackoffMax+time.Duration(float64(p.BackoffMax)*0.31) {
			t.Fatalf("backoff %v for attempt %d outside jitter envelope", a, n)
		}
	}
	if p.backoff("peer1", "M", 1) == p.backoff("peer2", "M", 1) {
		t.Fatalf("different peers drew identical jitter (improbable)")
	}
	// Exponential growth caps at BackoffMax even for huge attempt counts.
	pNoJit := RetryPolicy{MaxRetries: 99, Backoff: 10 * time.Millisecond, BackoffMax: 80 * time.Millisecond}
	if got := pNoJit.backoff("p", "M", 50); got != 80*time.Millisecond {
		t.Fatalf("backoff cap broken: %v", got)
	}
}

// timeoutOnce fails every even-numbered call with ErrTimeout at its
// deadline and answers every odd one after a millisecond, on timers it
// owns, so a call that times out once and succeeds on the retry costs the
// client nothing.
type timeoutOnce struct {
	loop  *simclock.SimLoop
	calls int
	t     simclock.Timer
	done  func([]byte, error)
	fail  bool
	fire  func()
	reply []byte
}

func newTimeoutOnce(loop *simclock.SimLoop) *timeoutOnce {
	c := &timeoutOnce{loop: loop, reply: []byte{1}}
	c.fire = func() {
		if c.fail {
			c.done(nil, ErrTimeout)
		} else {
			c.done(c.reply, nil)
		}
	}
	return c
}

func (c *timeoutOnce) Call(method string, req wire.Message, timeout time.Duration, done func([]byte, error)) {
	c.fail = c.calls%2 == 0
	c.calls++
	c.done = done
	d := time.Millisecond
	if c.fail {
		d = timeout
	}
	c.loop.Arm(&c.t, d, c.fire)
}

func (c *timeoutOnce) Close() error { return nil }

// TestRetrierAllocs: a steady-state call that times out once and succeeds
// on the retry allocates nothing — the record, its backoff timer and its
// callbacks are the Retrier's, and OnRetry is bound once.
func TestRetrierAllocs(t *testing.T) {
	loop := simclock.NewSimLoop()
	c := newTimeoutOnce(loop)
	retried, ok := 0, 0
	onRetry := func(key, method string, attempt int, err error) { retried++ }
	r := NewRetrier(loop, RetryPolicy{MaxRetries: 2, Backoff: 10 * time.Millisecond, JitterFrac: 0.2, Seed: 3,
		Budget: time.Second, OnRetry: onRetry})
	done := func(resp []byte, err error) {
		if err == nil && len(resp) == 1 {
			ok++
		}
	}
	call := func() {
		r.Call(c, "M", "peer1", Empty, 100*time.Millisecond, done)
		loop.RunFor(time.Second)
	}
	call() // warm-up: the record
	if n := testing.AllocsPerRun(100, call); n != 0 {
		t.Errorf("a call retried once allocates %v, want 0", n)
	}
	// AllocsPerRun makes one more call than it measures.
	if ok != 102 || retried != 102 || c.calls != 204 {
		t.Fatalf("%d calls succeeded after %d retries and %d attempts; want 102, 102, 204", ok, retried, c.calls)
	}
}

// TestRetrierReentrantDone: a done that issues the next call on the same
// Retrier gets a clean record — the finished call's record, back on the
// free list before done ran — with its own attempt count and budget.
func TestRetrierReentrantDone(t *testing.T) {
	loop := simclock.NewSimLoop()
	c := &flakyClient{loop: loop, failN: 2, failErr: ErrTimeout}
	var attempts []int
	r := NewRetrier(loop, RetryPolicy{MaxRetries: 2, Backoff: 10 * time.Millisecond, Budget: time.Second,
		OnRetry: func(key, method string, attempt int, err error) { attempts = append(attempts, attempt) }})
	var outcomes []error
	var second func([]byte, error)
	first := func(resp []byte, err error) {
		outcomes = append(outcomes, err)
		c.failN = c.calls + 2 // the next call fails twice too
		r.Call(c, "M", "peer2", Empty, time.Second, second)
	}
	second = func(resp []byte, err error) { outcomes = append(outcomes, err) }
	r.Call(c, "M", "peer1", Empty, time.Second, first)
	if r.free != nil {
		t.Fatal("the call in flight left its record on the free list")
	}
	loop.RunFor(5 * time.Second)
	if len(outcomes) != 2 || outcomes[0] != nil || outcomes[1] != nil {
		t.Fatalf("outcomes %v, want two successes", outcomes)
	}
	if want := []int{1, 2, 1, 2}; fmt.Sprint(attempts) != fmt.Sprint(want) {
		t.Fatalf("retry attempts %v, want %v: the reused record kept the old count", attempts, want)
	}
	if c.calls != 6 {
		t.Fatalf("%d attempts, want 6", c.calls)
	}
	rc := r.free
	if rc == nil || rc.next != nil {
		t.Fatal("want exactly one record, reused, back on the free list")
	}
	if rc.c != nil || rc.done != nil || rc.req != nil {
		t.Fatalf("a freed record still holds its call: %+v", rc)
	}
}

func TestCallRetryDisabledIsPlainCall(t *testing.T) {
	loop := simclock.NewSimLoop()
	c := &flakyClient{loop: loop, failN: 1, failErr: ErrTimeout}
	_, err, _ := runRetry(t, loop, c, time.Second, RetryPolicy{})
	if !errors.Is(err, ErrTimeout) || c.calls != 1 {
		t.Fatalf("zero policy retried: calls=%d err=%v", c.calls, err)
	}
}

// recordClient records the timeout each call was issued with.
type recordClient struct {
	loop     *simclock.SimLoop
	timeouts []time.Duration
}

func (c *recordClient) Call(method string, req wire.Message, timeout time.Duration, done func([]byte, error)) {
	c.timeouts = append(c.timeouts, timeout)
	c.loop.After(time.Millisecond, func() { done([]byte{1}, nil) })
}

func (c *recordClient) Close() error { return nil }

func TestWithDefaultTimeout(t *testing.T) {
	loop := simclock.NewSimLoop()
	rec := &recordClient{loop: loop}
	c := WithDefaultTimeout(rec, 2*time.Second)
	loop.Post(func() {
		c.Call("M", Empty, 0, func([]byte, error) {})
		c.Call("M", Empty, 5*time.Second, func([]byte, error) {})
	})
	loop.RunFor(time.Second)
	if len(rec.timeouts) != 2 || rec.timeouts[0] != 2*time.Second || rec.timeouts[1] != 5*time.Second {
		t.Fatalf("timeouts %v; want [2s 5s]", rec.timeouts)
	}
	if WithDefaultTimeout(rec, 0) != Client(rec) {
		t.Fatalf("zero default should return the client unchanged")
	}
}

// TestTCPLateResponseCounted drives a real TCP round-trip whose response
// lands after the client timeout and checks the late-response counter.
func TestTCPLateResponseCounted(t *testing.T) {
	srv := NewTCPServer(func(string, []byte) (wire.Message, error) {
		time.Sleep(300 * time.Millisecond)
		return Empty, nil
	})
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
	sink := telemetry.NewSink()
	cl.SetTelemetry(sink)
	late := sink.Counter("dynamo_rpc_late_responses_total", "side", "client", "transport", "tcp")

	done := make(chan error, 1)
	loop.Post(func() {
		cl.Call("slow", Empty, 50*time.Millisecond, func(_ []byte, err error) { done <- err })
	})
	if err := <-done; !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for late.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("late response never counted")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
