// Package simclock provides the event-loop abstraction that all Dynamo
// components are written against: one event queue and two clocks. SimLoop
// runs the queue in virtual time, a deterministic discrete-event scheduler
// (used by the simulator and every experiment, so that a simulated day
// runs in milliseconds and is reproducible from a seed); WallLoop wakes
// the same queue by the wall clock in the dynamo-agentd and dynamo-suited
// daemons that speak RPC over real TCP.
//
// Components never sleep and never read the wall clock; they schedule
// callbacks on a Loop. This mirrors the production system's design where the
// controller is a collection of periodic, restartable control cycles.
package simclock

import "time"

// Loop is a single-threaded executor with a notion of current time.
// Callbacks run sequentially, so components that share a Loop need no
// locking among themselves. Only Post may be called off the loop goroutine.
type Loop interface {
	// Now returns the loop's current time as an offset from its epoch.
	Now() time.Duration
	// After schedules f to run d from now. d <= 0 runs f as soon as
	// possible, in scheduling order. The returned Timer can be stopped.
	After(d time.Duration, f func()) *Timer
	// Arm is After on a Timer the caller owns — typically a field of a
	// longer-lived struct such as an RPC burst record — so scheduling
	// allocates nothing. It orders against After exactly as another After
	// would. Arming a timer that is still queued reschedules it; a timer
	// may be re-armed from its own callback. The Timer must not be copied
	// or freed while queued.
	Arm(t *Timer, d time.Duration, f func())
	// Cancel stops t like t.Stop and also takes it out of the loop's queue
	// at once, so a cancelled deadline does not sit in the queue until the
	// time it would have fired. Cancelling a timer that already ran, or
	// was never armed, does nothing.
	Cancel(t *Timer)
	// Post enqueues f to run at the current time, in posting order, at the
	// loop's next look for work. It alone is safe from any goroutine: it is
	// how external event sources (e.g. TCP readers) hand work to the loop.
	Post(f func())
}

// Timer is a handle to a scheduled callback. The zero value is an unarmed
// timer ready for Loop.Arm.
//
// Timer is 48 bytes and must stay in that allocation size class. The links
// make the queue one FIFO lane per instant. Recurring events embed their
// timer (pull bursts, Ticker, agent lease, retries, failover probes,
// cohort flush), so After — and a Timer allocated per event — is left to
// rare paths: fault delays and duplicates, in-process call deadlines,
// Sim.At. Eager removal is a method on the loop (Loop.Cancel) rather than
// a loop pointer in the timer.
type Timer struct {
	when       time.Duration
	f          func()
	prev, next *Timer // neighbours in the lane
	lane       *lane  // the lane it is queued in; nil when not queued
	stopped    bool
}

// Stop cancels the timer. It reports whether the callback had not yet run.
// The loop discards a stopped timer when its time comes; Loop.Cancel
// discards it immediately.
func (t *Timer) Stop() bool {
	if t == nil || t.stopped {
		return false
	}
	t.stopped = true
	return true
}

// Stopped reports whether Stop was called before the callback ran.
func (t *Timer) Stopped() bool { return t != nil && t.stopped }

// Last reports whether t is queued as the last timer of its instant, so
// that a timer armed for that instant now would run right after it. That
// holds while t is the tail of its instant's lane: not once it has run or
// been cancelled, nor after another timer, stopped or not, was armed
// behind it.
func (t *Timer) Last() bool { return t.lane != nil && t.lane.tail == t }

// Ticker repeatedly invokes a callback at a fixed period on a Loop. It is
// the building block for control cycles (the 3 s leaf pull cycle, the 9 s
// upper-level pull cycle, the agent watchdog, ...). It re-arms one Timer
// it owns with a callback bound once, so a tick allocates nothing.
type Ticker struct {
	loop   Loop
	period time.Duration
	f      func()
	timer  Timer
	tick   func() // t.fire
	active bool
}

// NewTicker creates a ticker; it does not start it.
func NewTicker(loop Loop, period time.Duration, f func()) *Ticker {
	if period <= 0 {
		panic("simclock: ticker period must be positive")
	}
	t := &Ticker{loop: loop, period: period, f: f}
	t.tick = t.fire
	return t
}

// Start schedules the first tick one period from now. Starting a started
// ticker is a no-op.
func (t *Ticker) Start() {
	if t.active {
		return
	}
	t.active = true
	t.loop.Arm(&t.timer, t.period, t.tick)
}

// Stop cancels future ticks.
func (t *Ticker) Stop() {
	t.active = false
	t.loop.Cancel(&t.timer)
}

// Active reports whether the ticker is running.
func (t *Ticker) Active() bool { return t.active }

// SetPeriod changes the period for subsequent ticks.
func (t *Ticker) SetPeriod(p time.Duration) {
	if p <= 0 {
		panic("simclock: ticker period must be positive")
	}
	t.period = p
}

func (t *Ticker) fire() {
	if !t.active {
		return
	}
	t.f()
	if t.active {
		t.loop.Arm(&t.timer, t.period, t.tick)
	}
}
