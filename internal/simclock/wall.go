package simclock

import (
	"math"
	"sync"
	"time"
)

// WallLoop is a Loop driven by the real clock: a SimLoop whose goroutine
// sleeps on one runtime timer, set to the earliest queued instant, or
// until a Post wakes it, and then runs everything due. Components written
// for SimLoop run on the same queue in the real-time daemons
// (dynamo-agentd, dynamo-suited): arming allocates nothing, Cancel takes
// a timer out at once, and Timer.Last holds as it does in simulation.
//
// Now is the wall time of the current wake, read once and the same for
// every callback of that wake, as libuv's uv_now is; a callback's Arm(d)
// is therefore due d after it, never early. Every Loop method but Post
// must be called from the loop goroutine, that is from a callback or
// through Call.
type WallLoop struct {
	q     *SimLoop
	epoch time.Time
	wake  chan struct{} // holds one wake-up once work is posted
	stop  chan struct{}
	done  chan struct{}
	once  sync.Once
}

// NewWallLoop creates and starts a wall-clock loop.
func NewWallLoop() *WallLoop {
	l := &WallLoop{q: NewSimLoop(), epoch: time.Now(), wake: make(chan struct{}, 1),
		stop: make(chan struct{}), done: make(chan struct{})}
	go l.run()
	return l
}

// run is the loop goroutine. The wake timer is reset only when the
// earliest instant moves; a fire it no longer stands for is an empty pass.
func (l *WallLoop) run() {
	defer close(l.done)
	sleep := time.NewTimer(math.MaxInt64)
	defer sleep.Stop()
	at := time.Duration(-1) // the instant sleep is set for; -1 once it fired
	for {
		l.pass()
		if pq := l.q.pq; len(pq) > 0 && pq[0].when != at {
			at = pq[0].when
			sleep.Reset(at - time.Since(l.epoch))
		}
		select {
		case <-sleep.C:
			at = -1
		case <-l.wake:
		case <-l.stop:
			l.pass()
			return
		}
	}
}

// pass reads the wall clock once, then runs the posted work and every
// timer due by that reading. Past the last one, the front of the queue is
// the earliest live instant.
func (l *WallLoop) pass() {
	l.q.now = time.Since(l.epoch) // monotonic: never goes back
	for t := l.q.next(l.q.now); t != nil; t = l.q.next(l.q.now) {
		t.f()
	}
}

// Now implements Loop: the elapsed real time since the loop was created,
// as read at the start of the current wake.
func (l *WallLoop) Now() time.Duration { return l.q.now }

// After implements Loop.
func (l *WallLoop) After(d time.Duration, f func()) *Timer { return l.q.After(d, f) }

// Arm implements Loop.
func (l *WallLoop) Arm(t *Timer, d time.Duration, f func()) { l.q.Arm(t, d, f) }

// Cancel implements Loop.
func (l *WallLoop) Cancel(t *Timer) { l.q.Cancel(t) }

// Post implements Loop and is safe for concurrent use. Posting to a closed
// loop is a no-op.
func (l *WallLoop) Post(f func()) {
	select {
	case <-l.stop:
		return
	default:
	}
	l.q.Post(f)
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// Close stops the loop goroutine after one last pass over the work due.
func (l *WallLoop) Close() {
	l.once.Do(func() { close(l.stop) })
	<-l.done
}

// Call runs f on the loop goroutine and waits for it to finish, or for the
// loop to stop without running it. It is a convenience for tests and
// daemon shutdown paths.
func (l *WallLoop) Call(f func()) {
	done := make(chan struct{})
	l.Post(func() {
		f()
		close(done)
	})
	select {
	case <-done:
	case <-l.done:
	}
}
