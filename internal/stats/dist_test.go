package stats

import (
	"fmt"
	"math"
	"testing"
)

// exponential is the exponential distribution with the given rate (λ).
type exponential struct {
	rate float64
}

func (e exponential) Sample(r *RNG) float64 { return r.ExpFloat64() / e.rate }
func (e exponential) Mean() float64         { return 1 / e.rate }
func (e exponential) String() string        { return fmt.Sprintf("exponential(%g)", e.rate) }

// pareto is the Pareto (power-law) distribution with scale xm and shape
// alpha, drawn by inverse CDF: xm / U^(1/α), with U in (0, 1].
type pareto struct {
	xm, alpha float64
}

func (p pareto) Sample(r *RNG) float64 { return p.xm / math.Pow(1-r.Float64(), 1/p.alpha) }

// Mean is infinite for alpha <= 1.
func (p pareto) Mean() float64 {
	if p.alpha <= 1 {
		return math.Inf(1)
	}
	return p.alpha * p.xm / (p.alpha - 1)
}

func (p pareto) String() string { return fmt.Sprintf("pareto(%g,%g)", p.xm, p.alpha) }

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(8)
	same := true
	a2 := NewRNG(7)
	for i := 0; i < 10; i++ {
		if a2.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(1)
	s1, s2 := r.Split(), r.Split()
	equal := 0
	for i := 0; i < 100; i++ {
		if s1.Float64() == s2.Float64() {
			equal++
		}
	}
	if equal > 5 {
		t.Errorf("split streams look correlated: %d equal draws", equal)
	}
}

// empiricalMoments draws n samples and returns mean and stddev.
func empiricalMoments(d Distribution, seed int64, n int) (float64, float64) {
	r := NewRNG(seed)
	var w Welford
	for i := 0; i < n; i++ {
		w.Add(d.Sample(r))
	}
	return w.Mean(), w.StdDev()
}

func TestConstant(t *testing.T) {
	d := Constant{Value: 3.5}
	r := NewRNG(0)
	for i := 0; i < 10; i++ {
		if d.Sample(r) != 3.5 {
			t.Fatal("constant distribution must always return Value")
		}
	}
	if d.Mean() != 3.5 {
		t.Error("constant mean mismatch")
	}
}

func TestUniformMoments(t *testing.T) {
	d := Uniform{Lo: 1, Hi: 100}
	mean, sd := empiricalMoments(d, 11, 200000)
	if math.Abs(mean-d.Mean()) > 0.5 {
		t.Errorf("uniform mean = %v, want ≈ %v", mean, d.Mean())
	}
	wantSD := (100.0 - 1.0) / math.Sqrt(12)
	if math.Abs(sd-wantSD) > 0.5 {
		t.Errorf("uniform sd = %v, want ≈ %v", sd, wantSD)
	}
}

func TestUniformRange(t *testing.T) {
	d := Uniform{Lo: 2, Hi: 5}
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		x := d.Sample(r)
		if x < 2 || x >= 5 {
			t.Fatalf("uniform sample %v out of [2,5)", x)
		}
	}
}

func TestLogNormalMoments(t *testing.T) {
	d := LogNormal{Mu: 0, Sigma: 1}
	mean, _ := empiricalMoments(d, 12, 400000)
	// E[X] = exp(0.5) ≈ 1.6487; the heavy tail needs loose tolerance.
	if math.Abs(mean-d.Mean()) > 0.05 {
		t.Errorf("lognormal mean = %v, want ≈ %v", mean, d.Mean())
	}
}

func TestLogNormalPositive(t *testing.T) {
	d := LogNormal{Mu: 0, Sigma: 1}
	r := NewRNG(4)
	for i := 0; i < 10000; i++ {
		if d.Sample(r) <= 0 {
			t.Fatal("lognormal samples must be positive")
		}
	}
}

func TestExponentialMoments(t *testing.T) {
	d := exponential{rate: 2}
	mean, sd := empiricalMoments(d, 13, 200000)
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("exponential mean = %v, want ≈ 0.5", mean)
	}
	if math.Abs(sd-0.5) > 0.01 {
		t.Errorf("exponential sd = %v, want ≈ 0.5", sd)
	}
}

func TestBimodal(t *testing.T) {
	d := Bimodal{Slow: 1, Factor: 9, FastFraction: 0.5}
	r := NewRNG(5)
	slow, fast := 0, 0
	for i := 0; i < 100000; i++ {
		switch d.Sample(r) {
		case 1:
			slow++
		case 9:
			fast++
		default:
			t.Fatal("bimodal must return Slow or Slow*Factor")
		}
	}
	frac := float64(fast) / float64(slow+fast)
	if math.Abs(frac-0.5) > 0.01 {
		t.Errorf("fast fraction = %v, want ≈ 0.5", frac)
	}
	if got, want := d.Mean(), 5.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("bimodal mean = %v, want %v", got, want)
	}
}

func TestParetoMomentsAndSupport(t *testing.T) {
	d := pareto{xm: 1, alpha: 3}
	r := NewRNG(6)
	var w Welford
	for i := 0; i < 200000; i++ {
		x := d.Sample(r)
		if x < 1 {
			t.Fatalf("pareto sample %v below scale", x)
		}
		w.Add(x)
	}
	if math.Abs(w.Mean()-1.5) > 0.02 {
		t.Errorf("pareto mean = %v, want ≈ 1.5", w.Mean())
	}
	if !math.IsInf((pareto{xm: 1, alpha: 0.5}).Mean(), 1) {
		t.Error("pareto mean must be +Inf for alpha <= 1")
	}
}

func TestSampleN(t *testing.T) {
	xs := SampleN(Constant{Value: 2}, NewRNG(0), 17)
	if len(xs) != 17 {
		t.Fatalf("len = %d, want 17", len(xs))
	}
	for _, x := range xs {
		if x != 2 {
			t.Fatal("SampleN must fill from the distribution")
		}
	}
}

func TestDistributionStrings(t *testing.T) {
	ds := []Distribution{
		Constant{1}, Uniform{1, 100}, LogNormal{0, 1},
		exponential{1}, Bimodal{1, 4, 0.5}, pareto{1, 2},
	}
	seen := map[string]bool{}
	for _, d := range ds {
		s := d.String()
		if s == "" {
			t.Errorf("%T has empty String()", d)
		}
		if seen[s] {
			t.Errorf("duplicate String() %q", s)
		}
		seen[s] = true
	}
}
