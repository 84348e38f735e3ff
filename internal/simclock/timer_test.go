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

// TestTimerSizeClass pins Timer to the 32-byte allocation class (see the
// type's comment): a fifth word raises bytes per After by a half.
func TestTimerSizeClass(t *testing.T) {
	if s := unsafe.Sizeof(Timer{}); s > 32 {
		t.Fatalf("Timer is %d bytes, want <= 32", s)
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

// TestEventOrderMatchesReference drives SimLoop and refLoop with the same
// random sequence of After, Arm, Stop, Cancel, RunUntil and Step — with
// callbacks that schedule, re-arm and cancel in turn — and requires the
// same callbacks in the same order at the same times, the same Now() and
// the same Steps(). In the reference an owned timer is a pointer to its
// latest arming, and Cancel is Stop: removal at once must be unobservable.
func TestEventOrderMatchesReference(t *testing.T) {
	const ops, slots = 12000, 16
	for _, seed := range []int64{1, 7, 42, 1234, 99991} {
		rng := rand.New(rand.NewSource(seed))
		sim, ref := NewSimLoop(), &refLoop{}
		var simLog, refLog []string
		var simOwned [slots]Timer
		var refOwned [slots]*refTimer
		var simHandles []*Timer
		var refHandles []*refTimer

		stopRef := func(t *refTimer) {
			if t != nil {
				t.stopped = true
			}
		}
		// callbacks builds the pair of callbacks for event id. What an
		// event does when it fires depends only on id, so both loops see
		// the same nested operations.
		var callbacks func(id int) (func(), func())
		callbacks = func(id int) (func(), func()) {
			act := func(log *[]string, now func() time.Duration, onSim bool) {
				*log = append(*log, fmt.Sprintf("%d@%d", id, now()))
				child, k := id*31+7, (id*13)%slots
				d := time.Duration(id%5) * time.Millisecond
				cs, cr := callbacks(child)
				switch id % 4 {
				case 0: // schedule a follow-up
					if onSim {
						sim.After(d, cs)
					} else {
						ref.after(d, cr)
					}
				case 1: // re-arm an owned timer, maybe the one firing
					if onSim {
						sim.Arm(&simOwned[k], d, cs)
					} else {
						stopRef(refOwned[k])
						refOwned[k] = ref.after(d, cr)
					}
				case 2: // cancel an owned timer
					if onSim {
						sim.Cancel(&simOwned[k])
					} else {
						stopRef(refOwned[k])
					}
				}
			}
			return func() { act(&simLog, sim.Now, true) }, func() { act(&refLog, func() time.Duration { return ref.now }, false) }
		}

		for i := 0; i < ops; i++ {
			d := time.Duration(rng.Intn(50)-2) * time.Millisecond
			simF, refF := callbacks(i + 1)
			switch op := rng.Intn(10); {
			case op < 3:
				simHandles = append(simHandles, sim.After(d, simF))
				refHandles = append(refHandles, ref.after(d, refF))
			case op < 5:
				k := rng.Intn(slots)
				sim.Arm(&simOwned[k], d, simF)
				stopRef(refOwned[k])
				refOwned[k] = ref.after(d, refF)
			case op < 6 && len(simHandles) > 0:
				h := rng.Intn(len(simHandles))
				simHandles[h].Stop()
				refHandles[h].stopped = true
			case op < 7 && len(simHandles) > 0:
				h := rng.Intn(len(simHandles))
				sim.Cancel(simHandles[h])
				refHandles[h].stopped = true
			case op < 8:
				k := rng.Intn(slots)
				sim.Cancel(&simOwned[k])
				stopRef(refOwned[k])
			case op < 9:
				until := sim.Now() + time.Duration(rng.Intn(30))*time.Millisecond
				sim.RunUntil(until)
				ref.runUntil(until)
			default:
				if a, b := sim.Step(), ref.step(); a != b {
					t.Fatalf("seed %d op %d: Step = %v, reference %v", seed, i, a, b)
				}
			}
			if sim.Now() != ref.now || sim.Steps() != ref.steps || len(simLog) != len(refLog) {
				t.Fatalf("seed %d op %d: now %v/%v steps %d/%d events %d/%d (SimLoop/reference)",
					seed, i, sim.Now(), ref.now, sim.Steps(), ref.steps, len(simLog), len(refLog))
			}
		}
		sim.RunFor(time.Second)
		ref.runUntil(ref.now + time.Second)
		if sim.Now() != ref.now || sim.Steps() != ref.steps {
			t.Fatalf("seed %d: final now %v/%v steps %d/%d", seed, sim.Now(), ref.now, sim.Steps(), ref.steps)
		}
		for i := range refLog {
			if i >= len(simLog) || simLog[i] != refLog[i] {
				t.Fatalf("seed %d: event %d differs: SimLoop %v, reference %v", seed, i, simLog[i:min(i+3, len(simLog))], refLog[i:min(i+3, len(refLog))])
			}
		}
		if len(simLog) < ops/4 {
			t.Fatalf("seed %d: only %d events ran; the test is not exercising the loop", seed, len(simLog))
		}
	}
}
