package solve

import (
	"math"
	"testing"
)

// cube is x³, increasing and convex on [0, ∞), with its slope.
func cube(x float64) (float64, float64) { return x * x * x, 3 * x * x }

// bitLargest is the largest float x in [lo, +Inf] with f(x) ≤ budget, by
// bisection on the bit pattern.
func bitLargest(f func(float64) (float64, float64), budget, lo float64) float64 {
	a, b := math.Float64bits(lo), math.Float64bits(math.Inf(1))
	for b-a > 1 {
		m := a + (b-a)/2
		if y, _ := f(math.Float64frombits(m)); y <= budget {
			a = m
		} else {
			b = m
		}
	}
	return math.Float64frombits(a)
}

// Largest returns the bit bisection's float from a tight start, from a
// loose one, from a start below the root (the walk runs long and the
// rest is bisected) and from one whose cost overflows.
func TestLargestMatchesBitBisection(t *testing.T) {
	for _, budget := range []float64{1e-300, 1e-9, 0.5, 1, 2, 27, 1e10, 1e300} {
		root := math.Cbrt(budget)
		want := bitLargest(cube, budget, 0)
		for _, start := range []float64{root, root * (1 + 1e-9), 2 * root, 1e6 * root, root / 3, 1e200} {
			if got := Largest(cube, budget, 0, start); got != want {
				t.Errorf("budget %v, start %v: Largest = %v, bit bisection gives %v", budget, start, got, want)
			}
		}
	}
}

// Largest ends: lo when nothing above it fits, and MaxFloat64 when every
// finite float does.
func TestLargestEnds(t *testing.T) {
	linCube := func(x float64) (float64, float64) { return x + x*x*x, 1 + 3*x*x }
	if got := Largest(linCube, 0, 0, 5); got != 0 {
		t.Errorf("x + x³ ≤ 0: Largest = %v, want 0", got)
	}
	ident := func(x float64) (float64, float64) { return x / 2, 0.5 }
	if got := Largest(ident, math.MaxFloat64, 0, math.MaxFloat64); got != math.MaxFloat64 {
		t.Errorf("Largest(x/2 ≤ MaxFloat64) = %v, want MaxFloat64", got)
	}
	// cost(lo) > budget breaks the contract; Largest still returns.
	if got := Largest(cube, -1, 1, 4); got != 1 {
		t.Errorf("cost(lo) > budget: Largest = %v, want lo", got)
	}
}
