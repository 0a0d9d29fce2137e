// Package solve holds both solves of an equal-finish split: Level, the
// outer one, finds the common finish time θ at which Σκᵢ(θ) reaches the
// load, and Largest, the inner one, finds the largest amount of work a
// convex, increasing cost fits into a budget.
package solve

import (
	"errors"
	"math"
)

// ErrUnreachable marks a target that Level's sum does not reach at any
// finite θ.
var ErrUnreachable = errors.New("solve: the target is unreachable at any finite level")

// Level brackets the least θ with sum(θ) ≥ target and returns the bracket
// [lo, hi]: sum(lo) < target ≤ sum(hi), or lo = 0 when sum(1) already
// reaches the target. sum must be non-decreasing in θ ≥ 0; a NaN sum (an
// overflow inside it) counts as short of the target.
//
// It doubles θ from 1, keeping lo at the last doubling that fell short,
// and returns ErrUnreachable when θ overflows. It then bisects while
// hi−lo > width(hi), at most 200 times. Starting from the last short
// doubling is exact: a bisection over [0, hi] would first test hi/2,
// which is that doubling, and go on from the same bracket.
func Level(sum func(theta float64) float64, target float64, width func(hi float64) float64) (lo, hi float64, err error) {
	hi = 1
	for !(sum(hi) >= target) {
		lo, hi = hi, 2*hi
		if math.IsInf(hi, 0) {
			return 0, 0, ErrUnreachable
		}
	}
	for i := 0; i < 200 && hi-lo > width(hi); i++ {
		mid := (lo + hi) / 2
		if sum(mid) >= target {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo, hi, nil
}

// walkSteps bounds the ulp walk that finishes Largest; past it the rest
// of the bracket is bisected on the bit pattern.
const walkSteps = 8

// Largest returns the largest float64 x ≥ lo with cost(x) ≤ budget, so
// that cost(x) ≤ budget < cost(math.Nextafter(x, +Inf)). cost returns the
// cost at x and its slope there. It must be increasing and convex on
// [lo, ∞) with cost(lo) ≤ budget, lo must be ≥ 0, and start must bound
// the root from above in exact arithmetic.
//
// Newton's method from start falls monotonically onto the root, since a
// tangent of a convex increasing function crosses the budget at or above
// it, and stops at the first iterate within the budget; where rounding
// stalls it, it steps down one ulp. An ulp walk then climbs to the last
// float within the budget. Every decision compares cost with budget, so
// where the rounded cost is monotone the result is the one a bisection
// on the bit pattern over [lo, +Inf] returns.
func Largest(cost func(x float64) (y, slope float64), budget, lo, start float64) float64 {
	x, hi := start, math.Inf(1) // hi: the least float known to cost more than budget
	for {
		y, slope := cost(x)
		if y <= budget {
			break
		}
		hi = x
		if x <= lo {
			return lo // cost(lo) > budget: no x fits
		}
		next := x - (y-budget)/slope
		switch {
		case !(next > lo): // below the domain, or NaN from an overflowed cost
			next = lo
		case next >= x: // the step is below half an ulp of x
			next = math.Nextafter(x, lo)
		}
		x = next
	}
	for range walkSteps {
		up := math.Nextafter(x, hi)
		if up == hi {
			return x
		}
		if y, _ := cost(up); y > budget {
			return x
		}
		x = up
	}
	// The walk ran long (start was far below the root, or an overflow
	// sent Newton to lo): bisect [x, hi] on the bit pattern, which orders
	// non-negative floats.
	a, b := math.Float64bits(x), math.Float64bits(hi)
	for b-a > 1 {
		m := a + (b-a)/2
		if y, _ := cost(math.Float64frombits(m)); y <= budget {
			a = m
		} else {
			b = m
		}
	}
	return math.Float64frombits(a)
}
