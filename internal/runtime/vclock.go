package runtime

import (
	"math"
	"sync"
)

// virtualClock is the time base of an Options.Virtual run. The workers
// still run as goroutines, but only one holds the clock at a time: a
// worker runs until it must wait for a modeled instant (its token bucket
// or a booked link window), parks there, and hands the clock to the
// worker with the earliest pending wake-up — ties to the lower worker
// index, the rule every dessim loop uses. The clock jumps to that
// wake-up instantly, so a run takes no wall time beyond its real copies
// and fills, and those take no modeled time. Every shared decision (which
// worker pops which ownerless chunk, in which order the link books its
// windows) is therefore made in the same order on every run, whatever
// the host load or GOMAXPROCS.
type virtualClock struct {
	mu  sync.Mutex
	now float64
	// wake[w] is worker w's pending wake-up instant; +Inf while w runs
	// or after it left.
	wake []float64
	// turn[w] hands the clock to worker w (buffered: the hand-off never
	// blocks the worker giving the clock away).
	turn []chan struct{}
}

// newVirtualClock builds the clock for p workers, each due at instant 0.
// Call start once every worker goroutine is launched.
func newVirtualClock(p int) *virtualClock {
	vc := &virtualClock{wake: make([]float64, p), turn: make([]chan struct{}, p)}
	for w := range vc.turn {
		vc.turn[w] = make(chan struct{}, 1)
	}
	return vc
}

// Now returns the virtual seconds since the run started.
func (vc *virtualClock) Now() float64 {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	return vc.now
}

// start hands the clock to the first worker.
func (vc *virtualClock) start() {
	vc.mu.Lock()
	vc.handOffLocked()
	vc.mu.Unlock()
}

// enter parks worker w's goroutine until the clock first reaches it.
func (vc *virtualClock) enter(w int) { <-vc.turn[w] }

// sleepUntil parks worker w until instant t (or now, if t has passed)
// and returns holding the clock again.
func (vc *virtualClock) sleepUntil(w int, t float64) {
	vc.mu.Lock()
	vc.wake[w] = math.Max(t, vc.now)
	vc.handOffLocked()
	vc.mu.Unlock()
	<-vc.turn[w]
}

// leave retires worker w for good and passes the clock on.
func (vc *virtualClock) leave(w int) {
	vc.mu.Lock()
	vc.wake[w] = math.Inf(1)
	vc.handOffLocked()
	vc.mu.Unlock()
}

// handOffLocked advances the clock to the earliest pending wake-up and
// wakes its worker; with none pending every worker has left.
func (vc *virtualClock) handOffLocked() {
	next := -1
	for w, t := range vc.wake {
		if !math.IsInf(t, 1) && (next < 0 || t < vc.wake[next]) {
			next = w
		}
	}
	if next < 0 {
		return
	}
	vc.now = vc.wake[next]
	vc.wake[next] = math.Inf(1)
	vc.turn[next] <- struct{}{}
}
