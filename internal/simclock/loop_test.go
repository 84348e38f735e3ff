package simclock

import (
	"sync"
	"testing"
	"time"
)

func TestSimLoopOrdering(t *testing.T) {
	l := NewSimLoop()
	var got []int
	l.After(3*time.Second, func() { got = append(got, 3) })
	l.After(1*time.Second, func() { got = append(got, 1) })
	l.After(2*time.Second, func() { got = append(got, 2) })
	l.Drain()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if l.Now() != 3*time.Second {
		t.Errorf("Now() = %v, want 3s", l.Now())
	}
}

func TestSimLoopSameInstantFIFO(t *testing.T) {
	l := NewSimLoop()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		l.After(time.Second, func() { got = append(got, i) })
	}
	l.Drain()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestSimLoopRunUntil(t *testing.T) {
	l := NewSimLoop()
	fired := 0
	l.After(time.Second, func() { fired++ })
	l.After(5*time.Second, func() { fired++ })
	l.RunUntil(2 * time.Second)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if l.Now() != 2*time.Second {
		t.Fatalf("Now() = %v, want 2s", l.Now())
	}
	l.RunUntil(5 * time.Second)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

func TestSimLoopRunUntilInclusive(t *testing.T) {
	l := NewSimLoop()
	fired := false
	l.After(2*time.Second, func() { fired = true })
	l.RunUntil(2 * time.Second)
	if !fired {
		t.Fatal("event at deadline should fire")
	}
}

func TestSimLoopTimerStop(t *testing.T) {
	l := NewSimLoop()
	fired := false
	tm := l.After(time.Second, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop should report true before firing")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	l.Drain()
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestSimLoopNegativeDelay(t *testing.T) {
	l := NewSimLoop()
	l.RunUntil(10 * time.Second)
	fired := time.Duration(-1)
	l.After(-5*time.Second, func() { fired = l.Now() })
	l.Drain()
	if fired != 10*time.Second {
		t.Fatalf("negative delay fired at %v, want now (10s)", fired)
	}
}

func TestSimLoopNestedScheduling(t *testing.T) {
	l := NewSimLoop()
	var times []time.Duration
	l.After(time.Second, func() {
		times = append(times, l.Now())
		l.After(time.Second, func() {
			times = append(times, l.Now())
		})
	})
	l.Drain()
	if len(times) != 2 || times[0] != time.Second || times[1] != 2*time.Second {
		t.Fatalf("nested times = %v", times)
	}
}

func TestSimLoopPostFromOtherGoroutine(t *testing.T) {
	l := NewSimLoop()
	var mu sync.Mutex
	count := 0
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.Post(func() {
				mu.Lock()
				count++
				mu.Unlock()
			})
		}()
	}
	wg.Wait()
	l.Drain()
	if count != 50 {
		t.Fatalf("posted callbacks run = %d, want 50", count)
	}
}

func TestSimLoopStepLimit(t *testing.T) {
	l := NewSimLoop()
	l.SetStepLimit(10)
	var loop func()
	loop = func() { l.After(time.Second, loop) }
	l.After(time.Second, loop)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic from step limit")
		}
	}()
	l.Drain()
}

func TestTickerPeriodic(t *testing.T) {
	l := NewSimLoop()
	var ticks []time.Duration
	tk := NewTicker(l, 3*time.Second, func() { ticks = append(ticks, l.Now()) })
	tk.Start()
	l.RunUntil(10 * time.Second)
	want := []time.Duration{3 * time.Second, 6 * time.Second, 9 * time.Second}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

func TestTickerStop(t *testing.T) {
	l := NewSimLoop()
	n := 0
	var tk *Ticker
	tk = NewTicker(l, time.Second, func() {
		n++
		if n == 2 {
			tk.Stop()
		}
	})
	tk.Start()
	l.RunUntil(10 * time.Second)
	if n != 2 {
		t.Fatalf("ticks after stop = %d, want 2", n)
	}
	if tk.Active() {
		t.Fatal("ticker should be inactive")
	}
}

func TestTickerStopFromOutside(t *testing.T) {
	l := NewSimLoop()
	n := 0
	tk := NewTicker(l, time.Second, func() { n++ })
	tk.Start()
	l.RunUntil(2 * time.Second)
	tk.Stop()
	l.RunUntil(10 * time.Second)
	if n != 2 {
		t.Fatalf("ticks = %d, want 2", n)
	}
}

func TestTickerRestart(t *testing.T) {
	l := NewSimLoop()
	n := 0
	tk := NewTicker(l, time.Second, func() { n++ })
	tk.Start()
	tk.Start() // no-op
	l.RunUntil(2 * time.Second)
	tk.Stop()
	tk.Start()
	l.RunUntil(4 * time.Second)
	if n != 4 {
		t.Fatalf("ticks = %d, want 4", n)
	}
}

func TestTickerSetPeriod(t *testing.T) {
	l := NewSimLoop()
	var ticks []time.Duration
	tk := NewTicker(l, time.Second, func() { ticks = append(ticks, l.Now()) })
	tk.Start()
	l.RunUntil(time.Second)
	tk.SetPeriod(2 * time.Second)
	l.RunUntil(5 * time.Second)
	want := []time.Duration{1 * time.Second, 3 * time.Second, 5 * time.Second}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
}

func TestTickerInvalidPeriod(t *testing.T) {
	l := NewSimLoop()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero period")
		}
	}()
	NewTicker(l, 0, func() {})
}

func TestWallLoopBasics(t *testing.T) {
	l := NewWallLoop()
	defer l.Close()
	done := make(chan struct{})
	var armed time.Duration
	l.Call(func() {
		armed = l.Now()
		l.After(time.Millisecond, func() { close(done) })
	})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("wall loop timer did not fire")
	}
	var now time.Duration
	l.Call(func() { now = l.Now() })
	if now <= armed {
		t.Fatalf("wall loop Now = %v after a timer armed at %v ran, should advance", now, armed)
	}
}

func TestWallLoopCall(t *testing.T) {
	l := NewWallLoop()
	defer l.Close()
	x := 0
	l.Call(func() { x = 42 })
	if x != 42 {
		t.Fatalf("Call did not run synchronously: x=%d", x)
	}
}

func TestWallLoopCloseIdempotent(t *testing.T) {
	l := NewWallLoop()
	l.Close()
	l.Close()
	l.Post(func() { t.Error("post after close ran") })
	time.Sleep(10 * time.Millisecond)
}

func TestWallLoopSerializesCallbacks(t *testing.T) {
	l := NewWallLoop()
	defer l.Close()
	var mu sync.Mutex
	running := false
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go l.Post(func() {
			defer wg.Done()
			mu.Lock()
			if running {
				t.Error("callbacks overlap")
			}
			running = true
			mu.Unlock()
			mu.Lock()
			running = false
			mu.Unlock()
		})
	}
	wg.Wait()
}
