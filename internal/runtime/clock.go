package runtime

import (
	"context"
	"time"
)

// Clock is the one time base of a run or a fleet: every span bound,
// token-bucket refill, link booking, fault instant and timed wait reads
// or sleeps on it. It has two implementations — the monotonic wall clock
// (NewWallClock, the default) and the virtual clock of Options.Virtual
// (see virtualClock) — and in this package only this file touches the
// host's time.
type Clock interface {
	// Now returns the seconds since the clock's zero.
	Now() float64
	// SleepUntil parks worker w until instant t has passed (at once when
	// it already has) and reports whether ctx is still live: false means
	// the wait was cut short by cancellation.
	SleepUntil(ctx context.Context, w int, t float64) bool

	// join and leave bracket worker w's goroutine in a Run: the virtual
	// clock hands turns among joined workers only; the wall clock has no
	// turns and ignores both.
	join(w int)
	leave(w int)
}

// wallClock is the host's monotonic clock, zeroed at construction. Each
// worker sleeps on its own reusable timer, so a timed wait allocates
// nothing once the worker's first wait has built its timer.
type wallClock struct {
	zero time.Time
	// timers[w] is touched only by worker w's goroutine.
	timers []*time.Timer
}

// NewWallClock returns the wall clock for a pool of p workers; worker
// indices passed to SleepUntil must lie in [0, p), and each index must
// belong to one goroutine.
func NewWallClock(p int) Clock {
	return &wallClock{zero: time.Now(), timers: make([]*time.Timer, p)}
}

func (c *wallClock) Now() float64 { return time.Since(c.zero).Seconds() }

func (c *wallClock) SleepUntil(ctx context.Context, w int, t float64) bool {
	d := t - c.Now()
	if d <= 0 {
		return ctx.Err() == nil
	}
	dur := time.Duration(d * float64(time.Second))
	tm := c.timers[w]
	if tm == nil {
		tm = time.NewTimer(dur)
		c.timers[w] = tm
	} else {
		tm.Reset(dur) // the last wait received its tick, so Reset is safe
	}
	select {
	case <-ctx.Done():
		// The timer may still tick; cancellation comes once per run, so
		// drop it rather than drain it.
		tm.Stop()
		c.timers[w] = nil
		return false
	case <-tm.C:
		return true
	}
}

func (c *wallClock) join(int)  {}
func (c *wallClock) leave(int) {}
