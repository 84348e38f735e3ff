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
// SimLoop is not itself goroutine-safe except for Post, which may be called
// from other goroutines (e.g. a TCP reader feeding a simulated controller in
// integration tests); posted events are folded into the queue at the loop's
// current time the next time the loop looks for work.
type SimLoop struct {
	now time.Duration
	pq  eventHeap
	seq uint64

	mu        sync.Mutex
	posted    []func()
	hasPosted atomic.Bool // lets the loop skip mu when nothing was posted

	// Steps counts executed events, useful for run-away detection in tests.
	steps uint64
	limit uint64
}

// NewSimLoop returns an empty loop positioned at time zero.
func NewSimLoop() *SimLoop {
	return &SimLoop{limit: 0}
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
	if t.pos != 0 {
		l.pq.remove(t)
	}
	t.when, t.seq, t.f, t.stopped = l.now+d, l.seq, f, false
	l.seq++
	l.pq.push(t)
}

// Cancel implements Loop.
func (l *SimLoop) Cancel(t *Timer) {
	if t.pos != 0 {
		l.pq.remove(t)
	}
	t.stopped = true
}

// Post implements Loop. It is safe for concurrent use.
func (l *SimLoop) Post(f func()) {
	l.mu.Lock()
	l.posted = append(l.posted, f)
	l.hasPosted.Store(true)
	l.mu.Unlock()
}

func (l *SimLoop) drainPosted() {
	if !l.hasPosted.Load() {
		return
	}
	l.mu.Lock()
	posted := l.posted
	l.posted = nil
	l.hasPosted.Store(false)
	l.mu.Unlock()
	for _, f := range posted {
		l.After(0, f)
	}
}

// next takes the first live event due by deadline off the queue, or
// returns nil. Stopped timers met on the way are discarded.
func (l *SimLoop) next(deadline time.Duration) *Timer {
	l.drainPosted()
	for len(l.pq) > 0 {
		t := l.pq[0]
		if !t.stopped && t.when > deadline {
			break
		}
		l.pq.remove(t)
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
	return len(l.pq) + n
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

// eventHeap is a binary min-heap of timers ordered by (when, seq). Every
// queued timer records its own position, so any of them can be removed in
// O(log n) without a search.
type eventHeap []*Timer

func (t *Timer) before(u *Timer) bool {
	return t.when < u.when || (t.when == u.when && t.seq < u.seq)
}

func (h eventHeap) set(i int, t *Timer) { h[i], t.pos = t, int32(i+1) }

func (h *eventHeap) push(t *Timer) {
	*h = append(*h, t)
	h.up(len(*h)-1, t)
}

// remove takes a queued timer out of the heap, wherever it sits, and
// seats the last timer in its place.
func (h *eventHeap) remove(t *Timer) {
	old := *h
	i, n := int(t.pos)-1, len(old)-1
	last := old[n]
	old[n], t.pos, *h = nil, 0, old[:n]
	switch {
	case i == n:
	case i > 0 && last.before(old[(i-1)/2]):
		h.up(i, last)
	default:
		h.down(i, last)
	}
}

// up seats t at index i or above, moving later parents down.
func (h eventHeap) up(i int, t *Timer) {
	for ; i > 0 && t.before(h[(i-1)/2]); i = (i - 1) / 2 {
		h.set(i, h[(i-1)/2])
	}
	h.set(i, t)
}

// down seats t at index i or below, moving earlier children up.
func (h eventHeap) down(i int, t *Timer) {
	for c := 2*i + 1; c < len(h); c = 2*i + 1 {
		if c+1 < len(h) && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(t) {
			break
		}
		h.set(i, h[c])
		i = c
	}
	h.set(i, t)
}
