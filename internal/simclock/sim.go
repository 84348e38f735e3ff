package simclock

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// SimLoop is a deterministic discrete-event scheduler. Events run in
// (time, sequence) order; two events scheduled for the same instant run in
// the order they were scheduled. All experiment and simulation code runs on
// a SimLoop so results are bit-reproducible for a given seed.
//
// The queue is one FIFO lane per pending instant, and a heap of lanes
// ordered by instant. Every arming is later than every timer already
// queued, so appending to the tail of its instant's lane keeps each lane in
// scheduling order without a sequence number, and makes "the last timer
// of its instant" a question one pointer answers (Timer.Last). That is
// how rpc.Network turns a leaf's pull burst — every agent's delivery, then
// every reply, due at one instant — into one event per burst: a step joins
// the burst's event only while nothing else is queued behind it, so the
// steps run exactly where events of their own would have.
//
// SimLoop is not itself goroutine-safe except for Post, which may be called
// from other goroutines (e.g. a TCP reader feeding a simulated controller in
// integration tests); posted work runs in posting order, at the loop's
// current time, the next time the loop looks for work, ahead of the timers
// that look finds due. A WallLoop is this queue woken by the wall clock.
type SimLoop struct {
	now    time.Duration
	pq     eventHeap
	lanes  map[time.Duration]*lane // the lane of every instant in pq
	last   *lane                   // the lane armed into last: a burst arms one instant in a row
	spare  *lane                   // retired lanes, linked through next
	queued int                     // timers in lanes, stopped ones included

	mu        sync.Mutex
	posted    []func()
	ran       []func()    // the posted work last run; its buffer takes the next posts
	hasPosted atomic.Bool // lets the loop skip mu when nothing was posted

	// Steps counts executed events, useful for run-away detection in tests.
	steps uint64
	limit uint64
}

// lane is the FIFO of timers due at one instant, linked through
// Timer.prev and Timer.next.
type lane struct {
	when       time.Duration
	head, tail *Timer
	next       *lane // spare-list link
}

// NewSimLoop returns an empty loop positioned at time zero.
func NewSimLoop() *SimLoop {
	return &SimLoop{lanes: make(map[time.Duration]*lane)}
}

// Now returns the current virtual time.
func (l *SimLoop) Now() time.Duration { return l.now }

// Steps returns the number of events executed so far.
func (l *SimLoop) Steps() uint64 { return l.steps }

// SetStepLimit makes Run panic after n events, guarding tests against
// accidental infinite event chains. Zero disables the limit.
func (l *SimLoop) SetStepLimit(n uint64) { l.limit = n }

// After implements Loop.
func (l *SimLoop) After(d time.Duration, f func()) *Timer {
	t := &Timer{}
	l.Arm(t, d, f)
	return t
}

// Arm implements Loop.
func (l *SimLoop) Arm(t *Timer, d time.Duration, f func()) {
	if d < 0 {
		d = 0
	}
	if t.lane != nil {
		l.unlink(t)
	}
	t.when, t.f, t.stopped = l.now+d, f, false
	ln := l.laneAt(t.when)
	t.lane, t.prev = ln, ln.tail
	if ln.tail != nil {
		ln.tail.next = t
	} else {
		ln.head = t
	}
	ln.tail = t
	l.queued++
}

// Cancel implements Loop.
func (l *SimLoop) Cancel(t *Timer) {
	if t.lane != nil {
		l.unlink(t)
	}
	t.stopped = true
}

// laneAt returns the lane of instant when, queueing a new one if there is
// none.
func (l *SimLoop) laneAt(when time.Duration) *lane {
	if ln := l.last; ln != nil && ln.when == when {
		return ln
	}
	ln := l.lanes[when]
	if ln == nil {
		if ln = l.spare; ln != nil {
			l.spare, ln.next = ln.next, nil
		} else {
			ln = &lane{}
		}
		ln.when = when
		l.lanes[when] = ln
		l.pq.push(ln)
	}
	l.last = ln
	return ln
}

// unlink takes a queued timer out of its lane. The lane stays queued even
// when it empties; it is retired when it reaches the front.
func (l *SimLoop) unlink(t *Timer) {
	ln := t.lane
	if t.prev != nil {
		t.prev.next = t.next
	} else {
		ln.head = t.next
	}
	if t.next != nil {
		t.next.prev = t.prev
	} else {
		ln.tail = t.prev
	}
	t.prev, t.next, t.lane = nil, nil, nil
	l.queued--
}

// Post implements Loop. It is safe for concurrent use.
func (l *SimLoop) Post(f func()) {
	l.mu.Lock()
	l.posted = append(l.posted, f)
	l.hasPosted.Store(true)
	l.mu.Unlock()
}

// runPosted runs the work posted since the last look. The two buffers
// trade places, so a post allocates nothing once both have grown; work
// posted meanwhile waits for the next look.
func (l *SimLoop) runPosted() {
	if !l.hasPosted.Load() {
		return
	}
	l.mu.Lock()
	l.posted, l.ran = l.ran[:0], l.posted
	l.hasPosted.Store(false)
	l.mu.Unlock()
	for _, f := range l.ran {
		f()
	}
	clear(l.ran)
}

// next runs the posted work, then takes the first live event due by
// deadline off the queue, or returns nil. Stopped timers and empty lanes
// met on the way are discarded.
func (l *SimLoop) next(deadline time.Duration) *Timer {
	l.runPosted()
	for len(l.pq) > 0 {
		ln := l.pq[0]
		t := ln.head
		if t == nil {
			l.pq.pop()
			delete(l.lanes, ln.when)
			if l.last == ln {
				l.last = nil
			}
			ln.next, l.spare = l.spare, ln
			continue
		}
		if !t.stopped && ln.when > deadline {
			break
		}
		l.unlink(t)
		if !t.stopped {
			return t
		}
	}
	return nil
}

// Step executes the next pending event, advancing virtual time to its
// deadline. It reports whether an event was executed.
func (l *SimLoop) Step() bool {
	t := l.next(math.MaxInt64)
	if t != nil {
		l.run(t)
	}
	return t != nil
}

// RunUntil executes events until virtual time would pass deadline, leaving
// the clock at exactly deadline. Events scheduled for the deadline itself
// are executed.
func (l *SimLoop) RunUntil(deadline time.Duration) {
	for t := l.next(deadline); t != nil; t = l.next(deadline) {
		l.run(t)
	}
	if l.now < deadline {
		l.now = deadline
	}
}

// RunFor advances the loop by d from its current time.
func (l *SimLoop) RunFor(d time.Duration) { l.RunUntil(l.now + d) }

// Drain runs until no events remain. Use with care: tickers never drain.
func (l *SimLoop) Drain() {
	for l.Step() {
	}
}

// Pending returns the number of scheduled events, counting timers that
// were stopped with Timer.Stop (not Cancel) and have not come due.
func (l *SimLoop) Pending() int {
	l.mu.Lock()
	n := len(l.posted)
	l.mu.Unlock()
	return l.queued + n
}

// run executes a timer already taken off the queue.
func (l *SimLoop) run(t *Timer) {
	l.now = t.when
	l.steps++
	if l.limit > 0 && l.steps > l.limit {
		panic(fmt.Sprintf("simclock: step limit %d exceeded at t=%s", l.limit, l.now))
	}
	t.f()
}

// eventHeap is a binary min-heap of lanes ordered by instant. Lanes leave
// it only from the front, so it needs no positions.
type eventHeap []*lane

func (h *eventHeap) push(ln *lane) {
	*h = append(*h, ln)
	h.up(len(*h)-1, ln)
}

// pop removes the earliest lane and seats the last one in its place.
func (h *eventHeap) pop() {
	old := *h
	n := len(old) - 1
	last := old[n]
	old[n], *h = nil, old[:n]
	if n > 0 {
		h.down(0, last)
	}
}

// up seats ln at index i or above, moving later parents down.
func (h eventHeap) up(i int, ln *lane) {
	for ; i > 0 && ln.when < h[(i-1)/2].when; i = (i - 1) / 2 {
		h[i] = h[(i-1)/2]
	}
	h[i] = ln
}

// down seats ln at index i or below, moving earlier children up.
func (h eventHeap) down(i int, ln *lane) {
	for c := 2*i + 1; c < len(h); c = 2*i + 1 {
		if c+1 < len(h) && h[c+1].when < h[c].when {
			c++
		}
		if h[c].when >= ln.when {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = ln
}
