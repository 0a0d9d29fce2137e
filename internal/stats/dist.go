package stats

import (
	"fmt"
	"math"
)

// Distribution generates positive real variates. It abstracts the three
// worker-speed profiles of the paper's Section 4.3 plus a few extras used
// by the extension experiments.
type Distribution interface {
	// Sample draws one variate using r.
	Sample(r *RNG) float64
	// Mean returns the distribution's theoretical mean.
	Mean() float64
	// String names the distribution for reports.
	String() string
}

// Constant is the degenerate distribution concentrated at Value. It models
// the paper's "homogeneous computation speed" profile (Figure 4(a)).
type Constant struct {
	Value float64
}

// Sample implements Distribution.
func (c Constant) Sample(*RNG) float64 { return c.Value }

// Mean implements Distribution.
func (c Constant) Mean() float64 { return c.Value }

func (c Constant) String() string { return fmt.Sprintf("constant(%g)", c.Value) }

// Uniform is the continuous uniform distribution on [Lo, Hi]. The paper's
// Figure 4(b) uses Uniform[1, 100] worker speeds.
type Uniform struct {
	Lo, Hi float64
}

// Sample implements Distribution.
func (u Uniform) Sample(r *RNG) float64 { return u.Lo + (u.Hi-u.Lo)*r.Float64() }

// Mean implements Distribution.
func (u Uniform) Mean() float64 { return (u.Lo + u.Hi) / 2 }

func (u Uniform) String() string { return fmt.Sprintf("uniform[%g,%g]", u.Lo, u.Hi) }

// LogNormal is the log-normal distribution: exp(N(Mu, Sigma²)). The paper's
// Figure 4(c) uses LogNormal(µ=0, σ=1) worker speeds.
type LogNormal struct {
	Mu, Sigma float64
}

// Sample implements Distribution.
func (l LogNormal) Sample(r *RNG) float64 {
	return math.Exp(l.Mu + l.Sigma*r.NormFloat64())
}

// Mean implements Distribution.
func (l LogNormal) Mean() float64 { return math.Exp(l.Mu + l.Sigma*l.Sigma/2) }

func (l LogNormal) String() string { return fmt.Sprintf("lognormal(%g,%g)", l.Mu, l.Sigma) }

// Bimodal draws Slow with probability 1-FastFraction and Slow*Factor
// otherwise. It models the paper's Section 4.1.3 example platform whose
// first half is slow nodes of speed s₁ and second half nodes k times
// faster; with FastFraction = 0.5 and Factor = k it draws the platform
// of the ρ ≤ (1+k)/(1+√k) analysis.
type Bimodal struct {
	Slow         float64
	Factor       float64
	FastFraction float64
}

// Sample implements Distribution.
func (b Bimodal) Sample(r *RNG) float64 {
	if r.Float64() < b.FastFraction {
		return b.Slow * b.Factor
	}
	return b.Slow
}

// Mean implements Distribution.
func (b Bimodal) Mean() float64 {
	return b.Slow*(1-b.FastFraction) + b.Slow*b.Factor*b.FastFraction
}

func (b Bimodal) String() string {
	return fmt.Sprintf("bimodal(slow=%g,x%g,frac=%g)", b.Slow, b.Factor, b.FastFraction)
}

// SampleN draws n variates from d into a fresh slice.
func SampleN(d Distribution, r *RNG, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = d.Sample(r)
	}
	return out
}
