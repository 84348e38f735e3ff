package simclock

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// TestTimerSizeClass pins Timer to the 48-byte allocation class (see the
// type's comment). The lane links cost 16 bytes over the old 32; the pull
// path, the ticker and the agent lease embed their timers, so only fault,
// retry, failover and rollout events allocate one, and a seventh word would
// raise what those pay per After by a third.
func TestTimerSizeClass(t *testing.T) {
	if s := unsafe.Sizeof(Timer{}); s > 48 {
		t.Fatalf("Timer is %d bytes, want <= 48", s)
	}
}

func TestArmFiresAndRearms(t *testing.T) {
	l := NewSimLoop()
	var owned Timer
	var got []time.Duration
	var f func()
	f = func() {
		got = append(got, l.Now())
		if len(got) < 3 {
			l.Arm(&owned, time.Second, f) // re-arm from its own callback
		}
	}
	l.Arm(&owned, time.Second, f)
	l.Arm(&owned, 2*time.Second, f) // re-arm while queued: reschedules, does not add
	if l.Pending() != 1 {
		t.Fatalf("Pending = %d after re-arming a queued timer, want 1", l.Pending())
	}
	l.Drain()
	want := []time.Duration{2 * time.Second, 3 * time.Second, 4 * time.Second}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fired at %v, want %v", got, want)
	}
}

func TestCancelRemovesAtOnce(t *testing.T) {
	l := NewSimLoop()
	var owned, never Timer
	fired := false
	l.Arm(&owned, time.Hour, func() { fired = true })
	lazy := l.After(time.Hour, func() { fired = true })
	lazy.Stop()
	if l.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2 (Stop leaves the timer queued)", l.Pending())
	}
	l.Cancel(&owned)
	l.Cancel(lazy)   // a stopped timer that is still queued is removed too
	l.Cancel(&never) // never armed: nothing to do
	l.Cancel(&owned) // twice: nothing to do
	if l.Pending() != 0 {
		t.Fatalf("Pending = %d after Cancel, want 0", l.Pending())
	}
	if !owned.Stopped() {
		t.Fatal("cancelled timer should report Stopped")
	}
	l.Drain()
	if fired || l.Steps() != 0 {
		t.Fatalf("cancelled timers ran: fired=%v steps=%d", fired, l.Steps())
	}
	// A cancelled timer can be armed again.
	l.Arm(&owned, time.Second, func() { fired = true })
	l.Drain()
	if !fired {
		t.Fatal("re-armed timer did not fire")
	}
}

func TestCallerOwnedTimerAllocs(t *testing.T) {
	l := NewSimLoop()
	var owned, deadline Timer
	f := func() {}
	// Warm-up: grow the queue's backing array once.
	l.Arm(&owned, time.Second, f)
	l.Arm(&deadline, time.Hour, f)
	l.Cancel(&deadline)
	l.Drain()
	if n := testing.AllocsPerRun(1000, func() {
		l.Arm(&owned, time.Second, f)
		l.Step()
	}); n != 0 {
		t.Errorf("arm -> fire allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		l.Arm(&deadline, time.Hour, f)
		l.Cancel(&deadline)
	}); n != 0 {
		t.Errorf("arm -> cancel allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		l.Post(f)
		l.Post(f)
		l.Step()
	}); n != 0 {
		t.Errorf("post -> run allocates %v per run, want 0", n)
	}
}

// TestPostWhileRunning posts from other goroutines while the loop is
// stepping, so -race sees the posted flag and the queue hand-over at work.
func TestPostWhileRunning(t *testing.T) {
	l := NewSimLoop()
	const posters, each = 8, 200
	var wg sync.WaitGroup
	ran := 0
	for i := 0; i < posters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				l.Post(func() { ran++ })
			}
		}()
	}
	stop := make(chan struct{})
	go func() { wg.Wait(); close(stop) }()
	for done := false; !done; {
		select {
		case <-stop:
			done = true
		default:
		}
		l.RunFor(time.Millisecond)
	}
	l.Drain()
	if ran != posters*each {
		t.Fatalf("ran %d posted callbacks, want %d", ran, posters*each)
	}
}

func TestWallLoopArmRearmAndCancel(t *testing.T) {
	l := NewWallLoop()
	defer l.Close()
	var owned, cancelled Timer
	fired := make(chan string, 4)
	l.Call(func() {
		l.Arm(&owned, time.Hour, func() { fired <- "stale" })
		// Re-armed before the first arming comes due: only the second runs.
		l.Arm(&owned, time.Millisecond, func() { fired <- "owned" })
		l.Arm(&cancelled, time.Millisecond, func() { fired <- "cancelled" })
		l.Cancel(&cancelled)
	})
	select {
	case got := <-fired:
		if got != "owned" {
			t.Fatalf("fired %q, want owned", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("armed timer did not fire")
	}
	select {
	case got := <-fired:
		t.Fatalf("unexpected second firing: %q", got)
	case <-time.After(20 * time.Millisecond):
	}
}

// TestTimerLast: Last holds while a timer is the tail of its instant's
// lane — not before it is armed, not once another timer (stopped or not)
// queues behind it, again once that one is cancelled or the timer is
// re-armed behind it, and never after it has run. The sequence runs on
// both loops: a WallLoop's callbacks share one Now, so the timers a
// callback arms for one delay share a lane there too.
func TestTimerLast(t *testing.T) {
	sim := NewSimLoop()
	ran := false
	lastSequence(t, sim, time.Second, func() { ran = true })
	sim.Drain()
	if !ran {
		t.Fatal("SimLoop: the sequence did not finish")
	}

	w := NewWallLoop()
	defer w.Close()
	done := make(chan struct{})
	w.Call(func() { lastSequence(t, w, 10*time.Millisecond, func() { close(done) }) })
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("WallLoop: the sequence did not finish")
	}
}

// lastSequence runs TestTimerLast's steps on l, which it must be called on,
// with instants u apart, and calls done from the loop after the last check.
func lastSequence(t *testing.T, l Loop, u time.Duration, done func()) {
	var a, b, c Timer
	nop := func() {}
	check := func(where string, want ...bool) {
		t.Helper()
		for i, tm := range []*Timer{&a, &b, &c} {
			if got := tm.Last(); got != want[i] {
				t.Errorf("%T %s: timer %d Last = %v, want %v", l, where, i, got, want[i])
			}
		}
	}
	check("unarmed", false, false, false)
	l.Arm(&a, u, nop)
	l.Arm(&c, 2*u, nop) // another instant: its own lane
	check("armed", true, false, true)
	l.Arm(&b, u, nop)
	check("b queued behind a", false, true, true)
	b.Stop()
	check("b stopped, still queued", false, true, true)
	l.Cancel(&b)
	check("b cancelled", true, false, true)
	l.Arm(&b, u, nop)
	l.Arm(&a, u, nop) // re-armed: moves behind b
	check("a re-armed", true, false, true)
	l.Cancel(&a)
	check("a cancelled", false, true, true)
	l.Arm(&a, u, func() {
		if a.Last() {
			t.Errorf("%T: a timer is Last while its own callback runs", l)
		}
	})
	l.After(3*u/2, func() { check("after the instant ran", false, false, true) })
	l.After(3*u, func() {
		check("drained", false, false, false)
		done()
	})
}

// TestWallLoopArmAllocs: on the WallLoop goroutine, arming, re-arming and
// cancelling a caller-owned timer allocate nothing, and re-arming one timer
// 10k times leaves it queued once.
func TestWallLoopArmAllocs(t *testing.T) {
	l := NewWallLoop()
	defer l.Close()
	var owned Timer
	f := func() {}
	var allocs float64
	pending := -1
	l.Call(func() {
		allocs = testing.AllocsPerRun(1000, func() {
			l.Arm(&owned, time.Hour, f)
			l.Arm(&owned, 2*time.Hour, f)
			l.Cancel(&owned)
		})
		for i := 0; i < 10000; i++ {
			l.Arm(&owned, time.Hour+time.Duration(i)*time.Millisecond, f)
		}
		pending = l.q.Pending()
		l.Cancel(&owned)
	})
	if allocs != 0 {
		t.Errorf("arm -> re-arm -> cancel allocates %v per run, want 0", allocs)
	}
	if pending != 1 {
		t.Errorf("Pending = %d after re-arming one timer 10k times, want 1", pending)
	}
}

// TestWallLoopPostChainDoesNotStarveTimers: work that keeps re-posting
// itself runs once per look, so a due timer still runs.
func TestWallLoopPostChainDoesNotStarveTimers(t *testing.T) {
	l := NewWallLoop()
	defer l.Close()
	fired := make(chan struct{})
	l.Call(func() {
		stop := false
		var chain func()
		chain = func() {
			if !stop {
				l.Post(chain)
			}
		}
		l.After(5*time.Millisecond, func() {
			stop = true
			close(fired)
		})
		l.Post(chain)
	})
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("a self-posting chain held back a due timer")
	}
}

// TestWallLoopNowPerWake: Now is read once per wake. Every callback of a
// wake, posted work included, sees the same Now while wall time passes
// under them; Now never goes back; and a timer never runs before the Now
// it was armed at plus its delay.
func TestWallLoopNowPerWake(t *testing.T) {
	l := NewWallLoop()
	defer l.Close()
	var wake, chain []time.Duration
	record := func() {
		wake = append(wake, l.Now())
		time.Sleep(time.Millisecond)
	}
	done := make(chan struct{})
	var armedAt time.Duration
	var step func()
	step = func() {
		now := l.Now()
		if now < armedAt+time.Millisecond {
			t.Errorf("ran at %v, armed at %v for 1ms: early", now, armedAt)
		}
		if n := len(chain); n > 0 && now < chain[n-1] {
			t.Errorf("Now went back: %v after %v", now, chain[n-1])
		}
		chain = append(chain, now)
		if len(chain) == 20 {
			close(done)
			return
		}
		armedAt = now
		l.After(time.Millisecond, step)
	}
	l.Call(func() {
		for i := 0; i < 3; i++ {
			l.After(2*time.Millisecond, func() {
				record()
				l.Post(record)
			})
		}
		armedAt = l.Now()
		l.After(time.Millisecond, step)
	})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the timer chain did not finish")
	}
	l.Call(func() {
		if len(wake) != 6 {
			t.Errorf("%d callbacks of the wake ran, want 6", len(wake))
		}
		for _, now := range wake {
			if now != wake[0] {
				t.Errorf("Now within one wake = %v, want every callback to see %v", wake, wake[0])
				break
			}
		}
	})
}

// refLoop is the event loop as it was before the indexed heap: a
// container/heap of timers, stopped ones skipped when they surface. It is
// the reference the property test holds SimLoop to.
type refLoop struct {
	now   time.Duration
	pq    refHeap
	seq   uint64
	steps uint64
}

type refTimer struct {
	when    time.Duration
	seq     uint64
	f       func()
	stopped bool
}

type refHeap []*refTimer

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(*refTimer)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	t := old[len(old)-1]
	*h = old[:len(old)-1]
	return t
}

func (l *refLoop) after(d time.Duration, f func()) *refTimer {
	if d < 0 {
		d = 0
	}
	t := &refTimer{when: l.now + d, seq: l.seq, f: f}
	l.seq++
	heap.Push(&l.pq, t)
	return t
}

func (l *refLoop) runUntil(deadline time.Duration) {
	for l.pq.Len() > 0 {
		if l.pq[0].stopped {
			heap.Pop(&l.pq)
			continue
		}
		if l.pq[0].when > deadline {
			break
		}
		l.run(heap.Pop(&l.pq).(*refTimer))
	}
	if l.now < deadline {
		l.now = deadline
	}
}

func (l *refLoop) step() bool {
	for l.pq.Len() > 0 {
		if t := heap.Pop(&l.pq).(*refTimer); !t.stopped {
			l.run(t)
			return true
		}
	}
	return false
}

func (l *refLoop) run(t *refTimer) {
	l.now = t.when
	l.steps++
	t.f()
}

const orderSlots = 16

// orderHarness applies each operation to a SimLoop and to the reference
// and checks after it that both agree on Now(), Steps() and the number of
// callbacks run. In the reference an owned timer is a pointer to its
// latest arming, and Cancel is Stop: removal at once must be unobservable.
type orderHarness struct {
	t              *testing.T
	sim            *SimLoop
	ref            *refLoop
	simLog, refLog []string
	simOwned       [orderSlots]Timer
	refOwned       [orderSlots]*refTimer
	simHandles     []*Timer
	refHandles     []*refTimer
}

func newOrderHarness(t *testing.T) *orderHarness {
	return &orderHarness{t: t, sim: NewSimLoop(), ref: &refLoop{}}
}

func stopRef(t *refTimer) {
	if t != nil {
		t.stopped = true
	}
}

// callbacks builds the pair of callbacks for event id. What an event does
// when it fires depends only on id, so both loops see the same nested
// operations: schedule a follow-up, re-arm an owned timer (maybe the one
// firing), or cancel one.
func (h *orderHarness) callbacks(id int) (func(), func()) {
	act := func(log *[]string, now func() time.Duration, onSim bool) {
		*log = append(*log, fmt.Sprintf("%d@%d", id, now()))
		child, k := id*31+7, (id*13)%orderSlots
		d := time.Duration(id%5) * time.Millisecond
		cs, cr := h.callbacks(child)
		switch id % 4 {
		case 0:
			if onSim {
				h.sim.After(d, cs)
			} else {
				h.ref.after(d, cr)
			}
		case 1:
			if onSim {
				h.sim.Arm(&h.simOwned[k], d, cs)
			} else {
				stopRef(h.refOwned[k])
				h.refOwned[k] = h.ref.after(d, cr)
			}
		case 2:
			if onSim {
				h.sim.Cancel(&h.simOwned[k])
			} else {
				stopRef(h.refOwned[k])
			}
		}
	}
	return func() { act(&h.simLog, h.sim.Now, true) }, func() { act(&h.refLog, func() time.Duration { return h.ref.now }, false) }
}

// after schedules event id on both loops and returns its handle index.
func (h *orderHarness) after(d time.Duration, id int) int {
	s, r := h.callbacks(id)
	h.simHandles = append(h.simHandles, h.sim.After(d, s))
	h.refHandles = append(h.refHandles, h.ref.after(d, r))
	return len(h.simHandles) - 1
}

// arm (re)arms owned timer k as event id on both loops.
func (h *orderHarness) arm(k int, d time.Duration, id int) {
	s, r := h.callbacks(id)
	h.sim.Arm(&h.simOwned[k], d, s)
	stopRef(h.refOwned[k])
	h.refOwned[k] = h.ref.after(d, r)
}

func (h *orderHarness) stop(i int) {
	h.simHandles[i].Stop()
	h.refHandles[i].stopped = true
}

func (h *orderHarness) cancel(i int) {
	h.sim.Cancel(h.simHandles[i])
	h.refHandles[i].stopped = true
}

func (h *orderHarness) cancelOwned(k int) {
	h.sim.Cancel(&h.simOwned[k])
	stopRef(h.refOwned[k])
}

func (h *orderHarness) runUntil(until time.Duration) {
	h.sim.RunUntil(until)
	h.ref.runUntil(until)
}

func (h *orderHarness) step(where string) {
	if a, b := h.sim.Step(), h.ref.step(); a != b {
		h.t.Fatalf("%s: Step = %v, reference %v", where, a, b)
	}
}

func (h *orderHarness) check(where string) {
	if h.sim.Now() != h.ref.now || h.sim.Steps() != h.ref.steps || len(h.simLog) != len(h.refLog) {
		h.t.Fatalf("%s: now %v/%v steps %d/%d events %d/%d (SimLoop/reference)",
			where, h.sim.Now(), h.ref.now, h.sim.Steps(), h.ref.steps, len(h.simLog), len(h.refLog))
	}
}

// finish runs both loops a second further and compares the logs event by
// event; at least minEvents callbacks must have run.
func (h *orderHarness) finish(where string, minEvents int) {
	h.sim.RunFor(time.Second)
	h.ref.runUntil(h.ref.now + time.Second)
	if h.sim.Now() != h.ref.now || h.sim.Steps() != h.ref.steps {
		h.t.Fatalf("%s: final now %v/%v steps %d/%d", where, h.sim.Now(), h.ref.now, h.sim.Steps(), h.ref.steps)
	}
	for i := range h.refLog {
		if i >= len(h.simLog) || h.simLog[i] != h.refLog[i] {
			h.t.Fatalf("%s: event %d differs: SimLoop %v, reference %v", where, i, h.simLog[i:min(i+3, len(h.simLog))], h.refLog[i:min(i+3, len(h.refLog))])
		}
	}
	if len(h.simLog) < minEvents {
		h.t.Fatalf("%s: only %d events ran; the test is not exercising the loop", where, len(h.simLog))
	}
}

// TestEventOrderMatchesReference drives SimLoop and refLoop with the same
// random sequence of After, Arm, Stop, Cancel, RunUntil and Step — with
// callbacks that schedule, re-arm and cancel in turn — and requires the
// same callbacks in the same order at the same times, the same Now() and
// the same Steps(). The first mix spreads timers over ~50 instants; the
// second is shaped like a pull burst, hundreds of timers at two or three
// shared instants, so lanes are long and their heads, middles and tails
// are cancelled, stopped and re-armed.
func TestEventOrderMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234, 99991} {
		t.Run(fmt.Sprintf("spread/seed=%d", seed), func(t *testing.T) { spreadMix(t, seed) })
		t.Run(fmt.Sprintf("burst/seed=%d", seed), func(t *testing.T) { burstMix(t, seed) })
	}
}

func spreadMix(t *testing.T, seed int64) {
	const ops = 12000
	rng := rand.New(rand.NewSource(seed))
	h := newOrderHarness(t)
	for i := 0; i < ops; i++ {
		d := time.Duration(rng.Intn(50)-2) * time.Millisecond
		id := i + 1
		switch op := rng.Intn(10); {
		case op < 3:
			h.after(d, id)
		case op < 5:
			h.arm(rng.Intn(orderSlots), d, id)
		case op < 6 && len(h.simHandles) > 0:
			h.stop(rng.Intn(len(h.simHandles)))
		case op < 7 && len(h.simHandles) > 0:
			h.cancel(rng.Intn(len(h.simHandles)))
		case op < 8:
			h.cancelOwned(rng.Intn(orderSlots))
		case op < 9:
			h.runUntil(h.sim.Now() + time.Duration(rng.Intn(30))*time.Millisecond)
		default:
			h.step(fmt.Sprintf("op %d", i))
		}
		h.check(fmt.Sprintf("op %d", i))
	}
	h.finish("spread", ops/4)
}

func burstMix(t *testing.T, seed int64) {
	const ops = 1500
	rng := rand.New(rand.NewSource(seed))
	h := newOrderHarness(t)
	id := 0
	nextID := func() int { id++; return id }
	var instants []time.Duration // the last burst's instants, absolute
	for i := 0; i < ops; i++ {
		where := fmt.Sprintf("op %d", i)
		switch op := rng.Intn(10); {
		case op < 3:
			// A burst: a fresh instant per lane, a head armed first, a
			// mix of After and owned re-arms (which move an owned timer
			// to its lane's tail), then a tail.
			base := h.sim.Now() + 100*time.Millisecond + time.Duration(i)*time.Microsecond
			instants = instants[:0]
			for k := 0; k < 2+rng.Intn(2); k++ {
				instants = append(instants, base+time.Duration(3*k)*time.Millisecond)
			}
			lanes := make([][]int, len(instants))
			for k, at := range instants {
				lanes[k] = append(lanes[k], h.after(at-h.sim.Now(), nextID()))
			}
			for n := 100 + rng.Intn(300); n > 0; n-- {
				k := rng.Intn(len(instants))
				if rng.Intn(4) == 0 {
					h.arm(rng.Intn(orderSlots), instants[k]-h.sim.Now(), nextID())
				} else {
					lanes[k] = append(lanes[k], h.after(instants[k]-h.sim.Now(), nextID()))
				}
			}
			for k, at := range instants {
				lanes[k] = append(lanes[k], h.after(at-h.sim.Now(), nextID()))
			}
			// Cancel the first lane's head, middle and tail; Stop the
			// second lane's head, and sometimes run to just before it so
			// the stopped head is met at the front past the deadline.
			first := lanes[0]
			h.cancel(first[0])
			h.cancel(first[len(first)/2])
			h.cancel(first[len(first)-1])
			h.stop(lanes[1][0])
			if rng.Intn(2) == 0 {
				h.runUntil(instants[1] - 1)
			}
		case op < 5 && len(instants) > 0:
			// Re-arm an owned timer into a burst instant still ahead.
			at := instants[rng.Intn(len(instants))]
			h.arm(rng.Intn(orderSlots), at-h.sim.Now(), nextID())
		case op < 6 && len(h.simHandles) > 0:
			h.cancel(rng.Intn(len(h.simHandles)))
		case op < 7 && len(h.simHandles) > 0:
			h.stop(rng.Intn(len(h.simHandles)))
		case op < 8:
			h.runUntil(h.sim.Now() + time.Duration(rng.Intn(120))*time.Millisecond)
		case op < 9:
			h.step(where)
		default:
			h.after(time.Duration(rng.Intn(4))*time.Millisecond, nextID())
		}
		h.check(where)
	}
	h.finish("burst", ops*20)
}

// TestLanesPerInstant arms 10,000 timers at three instants: the queue holds
// three lanes, and Pending counts stopped timers that are still queued but
// not cancelled ones.
func TestLanesPerInstant(t *testing.T) {
	l := NewSimLoop()
	f := func() {}
	var timers []*Timer
	for i := 0; i < 10000; i++ {
		timers = append(timers, l.After(time.Duration(1+i%3)*time.Second, f))
	}
	if len(l.pq) != 3 || len(l.lanes) != 3 {
		t.Fatalf("%d lanes in the heap, %d in the map, want 3 and 3", len(l.pq), len(l.lanes))
	}
	for _, tm := range timers[:100] {
		tm.Stop()
	}
	for _, tm := range timers[100:300] {
		l.Cancel(tm)
	}
	if got := l.Pending(); got != 9800 {
		t.Fatalf("Pending = %d, want 9800 (stopped timers stay queued, cancelled ones leave)", got)
	}
	l.Drain()
	if l.Steps() != 9700 || l.Pending() != 0 {
		t.Fatalf("Steps = %d, Pending = %d after Drain; want 9700 and 0", l.Steps(), l.Pending())
	}
	if len(l.pq) != 0 || len(l.lanes) != 0 || l.last != nil {
		t.Fatalf("%d lanes in the heap, %d in the map, cache %v after Drain; want none", len(l.pq), len(l.lanes), l.last)
	}
}
