package runtime

import (
	"context"
	"math"
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
	clk    Clock
	w      int     // the worker whose goroutine sleeps on clk
	rate   float64 // tokens per second
	burst  float64 // cap on accumulated idle credit
	tokens float64
	last   float64 // clock reading at the last refill, in seconds
}

// newTokenBucket builds worker w's bucket on clk, refilling at rate
// tokens/second. A non-positive burst defaults to 5 ms of credit, enough
// to smooth scheduler jitter without letting a worker run far ahead of
// its speed.
func newTokenBucket(clk Clock, w int, rate, burst float64) *tokenBucket {
	if burst <= 0 {
		burst = rate * 0.005
	}
	return &tokenBucket{clk: clk, w: w, rate: rate, burst: burst, tokens: burst, last: clk.Now()}
}

// acquire blocks until n tokens are available and consumes them; false
// means ctx was cancelled first.
func (tb *tokenBucket) acquire(ctx context.Context, n float64) bool {
	return tb.acquireWithin(ctx, n, math.Inf(1))
}

// acquireWithin is acquire with a deadline: it consumes n tokens and
// returns true if they are paid for by clock instant `until`, or sleeps
// until `until` and returns false — the chunk was cut short. It also
// returns false, at once, when ctx is cancelled mid-wait. The chaos layer
// uses the deadline to realize crashes mid-compute: the worker pays
// tokens toward the chunk until its crash instant lands, then dies with
// the chunk unfinished.
func (tb *tokenBucket) acquireWithin(ctx context.Context, n, until float64) bool {
	now := tb.clk.Now()
	tb.tokens += (now - tb.last) * tb.rate
	tb.last = now
	if tb.tokens > tb.burst {
		tb.tokens = tb.burst
	}
	if tb.tokens < n {
		wake := now + (n-tb.tokens)/tb.rate
		interrupted := wake > until
		if interrupted {
			wake = until
		}
		if !tb.clk.SleepUntil(ctx, tb.w, wake) {
			return false
		}
		now = tb.clk.Now()
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
