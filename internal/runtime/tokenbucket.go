package runtime

import (
	"math"
	"time"
)

// tokenBucket throttles one worker goroutine to a configured work rate.
// Tokens are cell updates; the bucket refills continuously at `rate`
// tokens per second up to `burst`. acquire is called by exactly one
// goroutine, so no locking is needed.
//
// The bucket admits debt: a chunk larger than the burst drains the bucket
// negative and the next acquire pays the balance in sleep time, keeping
// the *long-run* rate exact without splitting chunks.
type tokenBucket struct {
	rate   float64 // tokens per second
	burst  float64 // cap on accumulated idle credit
	tokens float64
	last   float64 // clock reading at the last refill, in seconds
	// now and sleep are the bucket's clock: the wall clock by default,
	// the run's virtual clock under Options.Virtual.
	now   func() float64
	sleep func(seconds float64)
}

// wallEpoch zeroes wallNow; only differences of its readings matter.
var wallEpoch = time.Now()

// wallNow reads the monotonic wall clock in seconds.
func wallNow() float64 { return time.Since(wallEpoch).Seconds() }

// wallSleep sleeps for the given seconds of wall time.
func wallSleep(seconds float64) { time.Sleep(time.Duration(seconds * float64(time.Second))) }

// newTokenBucket builds a bucket refilling at rate tokens/second. A
// non-positive burst defaults to 5 ms of credit, enough to smooth
// scheduler jitter without letting a worker run far ahead of its speed.
func newTokenBucket(rate, burst float64) *tokenBucket {
	if burst <= 0 {
		burst = rate * 0.005
	}
	return &tokenBucket{rate: rate, burst: burst, tokens: burst, last: wallNow(), now: wallNow, sleep: wallSleep}
}

// acquire blocks until n tokens are available and consumes them.
func (tb *tokenBucket) acquire(n float64) { tb.acquireWithin(n, -1) }

// acquireWithin is acquire with a deadline: it consumes n tokens and
// returns true if they can be paid for within `budget` of sleeping, or
// sleeps exactly the budget and returns false — the chunk was cut short.
// A negative budget means no deadline. The chaos layer uses the budget to
// realize crashes mid-compute: the worker pays tokens toward the chunk
// until its crash instant lands, then dies with the chunk unfinished.
func (tb *tokenBucket) acquireWithin(n float64, budget time.Duration) bool {
	now := tb.now()
	tb.tokens += (now - tb.last) * tb.rate
	tb.last = now
	if tb.tokens > tb.burst {
		tb.tokens = tb.burst
	}
	if tb.tokens < n {
		wait := (n - tb.tokens) / tb.rate
		interrupted := budget >= 0 && wait > budget.Seconds()
		if interrupted {
			wait = budget.Seconds()
		}
		tb.sleep(wait)
		now = tb.now()
		tb.tokens += (now - tb.last) * tb.rate
		tb.last = now
		// The post-sleep refill must honor the burst cap too: the OS
		// routinely oversleeps, and without this clamp the overshoot
		// banks as unbounded credit that lets the worker burst far
		// ahead of its configured rate on subsequent acquires. Credit
		// beyond max(n, burst) is forfeited — a worker can be late,
		// never early.
		if lim := math.Max(n, tb.burst); tb.tokens > lim {
			tb.tokens = lim
		}
		if interrupted {
			// The partial payment is forfeited with the chunk: whoever
			// re-runs it pays the full area again (lost work, not a
			// discount), and this bucket keeps only its clamped balance.
			return false
		}
	}
	tb.tokens -= n
	return true
}
