package simclock

import (
	"sync"
	"time"
)

// WallLoop is a Loop driven by the real clock. It runs callbacks on a single
// dedicated goroutine, so components written for SimLoop work unchanged in
// the real-time daemons (dynamo-agentd, dynamo-suited).
type WallLoop struct {
	epoch time.Time
	work  chan func()
	stop  chan struct{}
	done  chan struct{}

	mu     sync.Mutex
	closed bool
}

// NewWallLoop creates and starts a wall-clock loop.
func NewWallLoop() *WallLoop {
	l := &WallLoop{
		epoch: time.Now(),
		work:  make(chan func(), 1024),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go l.run()
	return l
}

func (l *WallLoop) run() {
	defer close(l.done)
	for {
		select {
		case f := <-l.work:
			f()
		case <-l.stop:
			// Drain anything already queued, then exit.
			for {
				select {
				case f := <-l.work:
					f()
				default:
					return
				}
			}
		}
	}
}

// Now implements Loop: elapsed real time since the loop was created.
func (l *WallLoop) Now() time.Duration { return time.Since(l.epoch) }

// After implements Loop. The callback is marshalled onto the loop goroutine.
func (l *WallLoop) After(d time.Duration, f func()) *Timer {
	t := &Timer{}
	l.Arm(t, d, f)
	return t
}

// Arm implements Loop. The runtime timer of an earlier arming cannot be
// recalled; when it posts it finds the Timer already run or cancelled, or
// re-armed for a later time, and does nothing. Should it find the Timer
// re-armed and due, it runs it, and the later post finds it already run.
func (l *WallLoop) Arm(t *Timer, d time.Duration, f func()) {
	t.when, t.f, t.stopped, t.armed = l.Now()+d, f, false, true
	time.AfterFunc(d, func() {
		l.Post(func() {
			if t.armed && !t.stopped && l.Now() >= t.when {
				t.armed = false
				t.f()
			}
		})
	})
}

// Cancel implements Loop. There is no queue to take the timer out of: the
// pending runtime timer still posts, and the post does nothing.
func (l *WallLoop) Cancel(t *Timer) { t.Stop() }

// Post implements Loop and is safe for concurrent use. Posting to a closed
// loop is a no-op.
func (l *WallLoop) Post(f func()) {
	l.mu.Lock()
	closed := l.closed
	l.mu.Unlock()
	if closed {
		return
	}
	select {
	case l.work <- f:
	case <-l.stop:
	}
}

// Close stops the loop goroutine after draining queued work.
func (l *WallLoop) Close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	l.mu.Unlock()
	close(l.stop)
	<-l.done
}

// Call runs f on the loop goroutine and waits for it to finish. It is a
// convenience for tests and daemon shutdown paths.
func (l *WallLoop) Call(f func()) {
	done := make(chan struct{})
	l.Post(func() {
		f()
		close(done)
	})
	select {
	case <-done:
	case <-l.stop:
	}
}
