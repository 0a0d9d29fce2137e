//go:build linux

package runtime

import (
	"context"
	goruntime "runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestWallClockSleepUntilLateness pins the wall clock's wake precision. A
// bare Go timer on Linux wakes on the next whole millisecond at best, so
// a 0.2 ms wait used to come back ~1 ms late and a 2.5 ms wait ~0.4–0.7
// ms late; the kernel-slept tail brings the median under 0.3 ms.
func TestWallClockSleepUntilLateness(t *testing.T) {
	c := NewWallClock(1)
	for _, d := range []float64{0.2e-3, 2.5e-3} {
		late := make([]float64, 50)
		for i := range late {
			at := c.Now() + d
			if !c.SleepUntil(context.Background(), 0, at) {
				t.Fatal("live wait reported cancelled")
			}
			late[i] = c.Now() - at
		}
		sort.Float64s(late)
		med := late[len(late)/2]
		t.Logf("%.1f ms waits: median lateness %.0f µs", d*1e3, med*1e6)
		if med > 300e-6 {
			t.Errorf("%.1f ms waits: median lateness %.0f µs, want ≤ 300 µs", d*1e3, med*1e6)
		}
	}
}

// TestWallClockSleepUntilAllocatesNothing: once a worker's timer exists,
// a wait that sleeps on it and then in the tail allocates nothing.
func TestWallClockSleepUntilAllocatesNothing(t *testing.T) {
	c := NewWallClock(1)
	wait := func() { c.SleepUntil(context.Background(), 0, c.Now()+2*tailSeconds) }
	wait() // builds the timer
	if allocs := testing.AllocsPerRun(10, wait); allocs != 0 {
		t.Errorf("a timed wait allocates %v objects, want 0", allocs)
	}
}

// TestWallClockCancelInsideTail: a wait cancelled while its goroutine
// sleeps in the kernel returns false within one tail, not at its
// instant's next timer tick.
func TestWallClockCancelInsideTail(t *testing.T) {
	c := NewWallClock(1)
	// The cancel must land while the waiter is in its tail; a waiter that
	// finishes first (the canceller ran late) tries again.
	for attempt := 0; attempt < 20; attempt++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancelled := make(chan time.Time, 1)
		go func() {
			deadline := time.Now().Add(50 * time.Millisecond)
			for tailSleepers.Load() == 0 && time.Now().Before(deadline) {
				goruntime.Gosched()
			}
			cancelled <- time.Now()
			cancel()
		}()
		live := c.SleepUntil(ctx, 0, c.Now()+tailSeconds)
		returned := time.Now()
		at := <-cancelled
		cancel()
		if live {
			continue // the tail ended before the cancel
		}
		if took := returned.Sub(at); took > 5*time.Millisecond {
			t.Errorf("cancelled tail returned %v after the cancel, want ≤ 5 ms", took)
		}
		return
	}
	t.Fatal("no cancel landed inside a tail in 20 attempts")
}

// TestWallClockTailCap: at most GOMAXPROCS goroutines hold a tail slot
// (each holds its OS thread); a refused waiter returns at once and its
// wait falls back to the timer.
func TestWallClockTailCap(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(2))
	if !acquireTail() || !acquireTail() {
		t.Fatal("free tail slots refused")
	}
	if acquireTail() {
		t.Fatal("a third tail slot admitted at GOMAXPROCS 2")
	}
	start := time.Now()
	if sleepTail(50e-3) {
		t.Fatal("sleepTail slept with every slot taken")
	}
	if took := time.Since(start); took > 10*time.Millisecond {
		t.Errorf("a refused tail took %v, want an immediate return", took)
	}
	c := NewWallClock(1)
	at := c.Now() + 1e-3
	if !c.SleepUntil(context.Background(), 0, at) || c.Now() < at {
		t.Error("a wait with every tail slot taken did not sleep to its instant")
	}
	tailSleepers.Add(-2)

	// Six goroutines contend for the two slots; the holders never exceed
	// two at any instant.
	var held, peak atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if !acquireTail() {
					continue
				}
				n := held.Add(1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				goruntime.Gosched()
				held.Add(-1)
				tailSleepers.Add(-1)
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p < 1 || p > 2 {
		t.Errorf("peak concurrent tail holders %d, want 1..2 at GOMAXPROCS 2", p)
	}
	if n := tailSleepers.Load(); n != 0 {
		t.Errorf("%d tail slots still counted after every holder left", n)
	}
}
