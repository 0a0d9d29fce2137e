package solve

import (
	"errors"
	"math"
	"math/rand"
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

// levelFamily builds one monotone κ family over p workers whose scales
// spread over up to nine decades: the sum Σκᵢ(θ) that Level brackets.
func levelFamily(family uint8, p int, r *rand.Rand) func(theta float64) float64 {
	s, lat := make([]float64, p), make([]float64, p)
	spread := 9 * r.Float64()
	for i := range s {
		s[i] = math.Pow(10, spread*r.Float64()-spread/2)
		lat[i] = 10 * r.Float64()
	}
	var kappa func(i int, theta float64) float64
	switch family % 5 {
	case 0: // linear, the plain DLT split
		kappa = func(i int, theta float64) float64 { return theta * s[i] }
	case 1: // affine with a latency, the workers it exceeds left out
		kappa = func(i int, theta float64) float64 { return max(theta-lat[i], 0) * s[i] }
	case 2: // x^α for α = 2 and 4: the non-linear chunk on one worker
		kappa = func(i int, theta float64) float64 {
			if i%2 == 0 {
				return math.Sqrt(theta * s[i])
			}
			return math.Sqrt(math.Sqrt(theta * s[i]))
		}
	case 3: // x·log₂x, the comparisons of sorting a bucket
		cost := func(x float64) (float64, float64) { l := math.Log2(x); return x * l, l + math.Log2E }
		kappa = func(i int, theta float64) float64 {
			budget := theta * s[i]
			if math.IsInf(budget, 1) {
				return budget
			}
			return Largest(cost, budget, 1, max(2, budget))
		}
	default: // the γ-square-root water-fill root of γm²κ² + bκ = θ − a
		gamma := math.Pow(10, 6*r.Float64()-3)
		kappa = func(i int, theta float64) float64 {
			m, a := s[i], lat[i]
			b := m + 2*gamma*a*m
			d := max(theta-a, 0)
			return (math.Sqrt(b*b+4*gamma*m*m*d) - b) / (2 * gamma * m * m)
		}
	}
	return func(theta float64) float64 {
		sum := 0.0
		for i := range s {
			sum += kappa(i, theta)
		}
		return sum
	}
}

// FuzzLevel drives Level over every κ family with random scales and two
// targets. Each bracket must hold its target, Σκ(hi) ≥ target > Σκ(lo)
// (lo = 0 aside), be as narrow as the width asks where the halving cap
// allows, and move up with the target; a target past Σκ(MaxFloat64) must return ErrUnreachable.
func FuzzLevel(f *testing.F) {
	for family := range uint8(5) {
		f.Add(family, uint8(3), int64(family), 0.5, 1e3)
		f.Add(family, uint8(8), int64(family)+7, 1e6, 1e200)
		f.Add(family, uint8(1), int64(family)+9, 1e-300, 1e308)
	}
	widths := []func(hi float64) float64{
		func(hi float64) float64 { return 1e-12 * (1 + hi) },
		func(hi float64) float64 { return 1e-14 * (1 + hi) },
		func(hi float64) float64 { return 1e-14 * hi },
	}
	f.Fuzz(func(t *testing.T, family, p uint8, seed int64, t1, t2 float64) {
		if !(t1 > 0) || !(t2 > 0) || math.IsInf(t1, 0) || math.IsInf(t2, 0) {
			return
		}
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		r := rand.New(rand.NewSource(seed))
		sum := levelFamily(family, 1+int(p%16), r)
		width := widths[r.Intn(len(widths))]
		top, reach := sum(math.MaxFloat64), sum(0x1p1023)
		var los, his [2]float64
		for k, target := range []float64{t1, t2} {
			lo, hi, err := Level(sum, target, width)
			switch {
			case top < target:
				if !errors.Is(err, ErrUnreachable) {
					t.Fatalf("family %d, target %v above Σκ(MaxFloat64) = %v: err = %v, want ErrUnreachable", family, target, top, err)
				}
				return
			case err != nil:
				if reach >= target {
					t.Fatalf("family %d, target %v: %v, though Σκ(2¹⁰²³) = %v reaches it", family, target, err, reach)
				}
				return
			}
			if !(sum(hi) >= target) || lo > 0 && !(sum(lo) < target) || !(0 <= lo && lo < hi) {
				t.Fatalf("family %d, target %v: bracket [%v, %v] sums to [%v, %v]", family, target, lo, hi, sum(lo), sum(hi))
			}
			// The cap of 200 halvings binds only on a width that vanishes
			// with hi (width(0) = 0) below a bracket that never doubled.
			if hi-lo > width(hi) && (width(0) > 0 || sum(1) < target) {
				t.Fatalf("family %d, target %v: bracket [%v, %v] is wider than %v", family, target, lo, hi, width(hi))
			}
			los[k], his[k] = lo, hi
		}
		if los[0] > los[1] || his[0] > his[1] {
			t.Fatalf("family %d, targets %v ≤ %v: brackets [%v, %v] and [%v, %v] are not monotone", family, t1, t2, los[0], his[0], los[1], his[1])
		}
	})
}
