package runtime

import (
	"context"
	"time"
)

// Clock is the one time base of a run or a fleet: every span bound,
// token-bucket refill, link booking, fault instant and timed wait reads
// or sleeps on it. It has two implementations — the monotonic wall clock
// (NewWallClock, the default) and the virtual clock of Options.Virtual
// (see virtualClock) — and in this package only this file and the
// wall clock's Linux tail (clock_linux.go) touch the host's time.
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

// wallClock is the host's monotonic clock, zeroed at construction. A
// timed wait wakes within ~0.1 ms of its instant: Go's timers on Linux
// wake on the next whole millisecond at best (the netpoller's epoll wait
// takes milliseconds), so a worker sleeps on its own reusable timer
// until tailSeconds before the instant and sleeps the tail in the
// kernel (sleepTail, Linux only; elsewhere tailSeconds is 0 and the
// timer sleeps the whole wait). A timed wait allocates nothing once the
// worker's first wait has built its timer.
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
	for {
		d := t - c.Now()
		if d <= 0 || ctx.Err() != nil {
			return ctx.Err() == nil
		}
		if d > tailSeconds {
			d -= tailSeconds
		} else if sleepTail(d) {
			continue // cancellation is seen at the top, within one tail
		}
		// The tail is not due yet, or every tail slot is taken.
		if !c.sleepTimer(ctx, w, d) {
			return false
		}
	}
}

// sleepTimer parks worker w on its timer for d seconds and reports
// whether ctx is still live.
func (c *wallClock) sleepTimer(ctx context.Context, w int, d float64) bool {
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
