package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approxEq(a, b, tol float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestMean(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, math.NaN()},
		{"single", []float64{5}, 5},
		{"pair", []float64{1, 3}, 2},
		{"negatives", []float64{-2, -4, -6}, -4},
		{"mixed", []float64{1, 2, 3, 4, 5}, 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := Mean(c.in)
			if !approxEq(got, c.want, 1e-12) {
				t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
			}
		})
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{7}, 0},
		{"constant", []float64{4, 4, 4, 4}, 0},
		{"known", []float64{2, 4, 4, 4, 5, 5, 7, 9}, 32.0 / 7.0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Variance(c.in); !approxEq(got, c.want, 1e-12) {
				t.Errorf("Variance = %v, want %v", got, c.want)
			}
			if got := StdDev(c.in); !approxEq(got, math.Sqrt(c.want), 1e-12) {
				t.Errorf("StdDev = %v, want %v", got, math.Sqrt(c.want))
			}
		})
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5, -9, 2, 6}
	if got := Min(xs); got != -9 {
		t.Errorf("Min = %v, want -9", got)
	}
	if got := Max(xs); got != 6 {
		t.Errorf("Max = %v, want 6", got)
	}
	if !math.IsInf(Min(nil), 1) {
		t.Error("Min(nil) should be +Inf")
	}
	if !math.IsInf(Max(nil), -1) {
		t.Error("Max(nil) should be -Inf")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		q, want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {-0.5, 1}, {1.5, 5},
		{0.125, 1.5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !approxEq(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile(nil) should be NaN")
	}
	// Quantile must not reorder its input.
	unsorted := []float64{3, 1, 2}
	Quantile(unsorted, 0.5)
	if unsorted[0] != 3 || unsorted[1] != 1 || unsorted[2] != 2 {
		t.Errorf("Quantile mutated its input: %v", unsorted)
	}
}

func TestWelfordMatchesBatch(t *testing.T) {
	r := NewRNG(42)
	xs := SampleN(Uniform{Lo: -5, Hi: 12}, r, 1000)
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	if w.N() != len(xs) {
		t.Fatalf("N = %d, want %d", w.N(), len(xs))
	}
	if !approxEq(w.Mean(), Mean(xs), 1e-10) {
		t.Errorf("Welford mean %v != batch mean %v", w.Mean(), Mean(xs))
	}
	if !approxEq(w.Variance(), Variance(xs), 1e-10) {
		t.Errorf("Welford var %v != batch var %v", w.Variance(), Variance(xs))
	}
	if !approxEq(w.Min(), Min(xs), 0) || !approxEq(w.Max(), Max(xs), 0) {
		t.Errorf("Welford min/max mismatch")
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if !math.IsNaN(w.Mean()) {
		t.Error("empty Welford mean should be NaN")
	}
	if w.Variance() != 0 || w.StdDev() != 0 {
		t.Error("empty Welford variance should be 0")
	}
	if !math.IsInf(w.Min(), 1) || !math.IsInf(w.Max(), -1) {
		t.Error("empty Welford min/max should be ±Inf")
	}
}

// Property: Welford equals batch statistics on arbitrary inputs.
func TestWelfordProperty(t *testing.T) {
	f := func(xs []float64) bool {
		// Filter non-finite values; statistics are only defined for them.
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e8 {
				clean = append(clean, x)
			}
		}
		if len(clean) < 2 {
			return true
		}
		var w Welford
		for _, x := range clean {
			w.Add(x)
		}
		return approxEq(w.Mean(), Mean(clean), 1e-6) &&
			approxEq(w.Variance(), Variance(clean), 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: quantile is monotone in q and bounded by min/max.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		clean := raw[:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		q1 = math.Abs(math.Mod(q1, 1))
		q2 = math.Abs(math.Mod(q2, 1))
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		a, b := Quantile(clean, q1), Quantile(clean, q2)
		return a <= b && a >= Min(clean) && b <= Max(clean)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPermAndShuffle(t *testing.T) {
	r := NewRNG(77)
	perm := r.Perm(10)
	seen := make([]bool, 10)
	for _, v := range perm {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("not a permutation: %v", perm)
		}
		seen[v] = true
	}
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	orig := append([]int(nil), xs...)
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	// Same multiset.
	count := map[int]int{}
	for _, v := range xs {
		count[v]++
	}
	for _, v := range orig {
		count[v]--
	}
	for _, c := range count {
		if c != 0 {
			t.Fatalf("shuffle changed the multiset: %v", xs)
		}
	}
	// Deterministic for a fixed seed.
	ys := append([]int(nil), orig...)
	r2 := NewRNG(77)
	r2.Perm(10) // consume the same stream prefix
	r2.Shuffle(len(ys), func(i, j int) { ys[i], ys[j] = ys[j], ys[i] })
	for i := range xs {
		if xs[i] != ys[i] {
			t.Fatal("shuffle not deterministic under fixed seed")
		}
	}
}

func TestIntnAndInt63Ranges(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if r.Int63() < 0 {
			t.Fatal("Int63 returned negative")
		}
	}
}
