package iterative

import (
	"errors"
	"fmt"
	"math"

	"nlfl/internal/solve"
)

// Typed water-filling failures.
var (
	// ErrBadParams marks malformed solver inputs (non-positive unit
	// times, negative overheads, invalid load).
	ErrBadParams = errors.New("iterative: invalid water-filling parameters")
	// ErrInfeasible marks a load no finite water level can cover; it
	// wraps solve.ErrUnreachable when Σκ(θ) stays short of the load.
	ErrInfeasible = errors.New("iterative: water-filling infeasible")
)

// Params is one water-filling instance: split Load units of work over the
// workers so every loaded worker finishes at the same instant θ. Worker
// i's round time is modeled as cᵢ + mᵢκᵢ plus — when Gamma > 0 — the
// nonlinear penalty γ(cᵢ + mᵢκᵢ)² + γσᵢ²κᵢ of the streaming iterative
// model (Esfahanizadeh et al., see SNIPPETS.md): quadratic growth in the
// assigned load and a variance tax on jittery workers, the "no free
// lunch" term that shifts load away from fast-but-noisy machines.
type Params struct {
	// Gamma is the nonlinearity coefficient; 0 selects the linear
	// makespan-equalizing split cᵢ + mᵢκᵢ = θ.
	Gamma float64
	// Comm[i] is worker i's fixed per-round overhead in seconds (comm
	// setup, measured from trace Comm spans); nil means all zero.
	Comm []float64
	// Unit[i] is worker i's seconds per unit of load (1/rateᵢ). Required,
	// all positive.
	Unit []float64
	// Sigma[i] is the per-round standard deviation of worker i's unit
	// time in seconds; nil means all zero. Only meaningful with Gamma > 0.
	Sigma []float64
	// Load is the total work Ω to split, in load units (> 0).
	Load float64
}

// Split is a solved water-filling instance.
type Split struct {
	// Kappa[i] is worker i's assigned load; ΣKappa = Load exactly. A
	// worker whose overhead exceeds the water level gets 0.
	Kappa []float64
	// Theta is the common finishing time — the water level the bisection
	// converged to, and the split's predicted round makespan.
	Theta float64
}

// kappaAt inverts the per-worker time model at water level theta: the
// load κᵢ(θ) worker i can absorb and still finish by θ. With γ > 0 this
// is the positive root of γmᵢ²κ² + bᵢκ + (aᵢ−θ) = 0 in the exemplar's
// form; the γ→0 limit is the linear branch max(θ−cᵢ, 0)/mᵢ (the closed
// form divides by γ, so the limit needs its own branch).
func kappaAt(p Params, i int, theta float64) float64 {
	c := 0.0
	if p.Comm != nil {
		c = p.Comm[i]
	}
	m := p.Unit[i]
	if p.Gamma <= 0 {
		return math.Max(theta-c, 0) / m
	}
	sigma := 0.0
	if p.Sigma != nil {
		sigma = p.Sigma[i]
	}
	a := c + p.Gamma*c*c
	b := 2*p.Gamma*c*m + m + p.Gamma*sigma*sigma
	d := math.Max(theta-a, 0)
	if d == 0 {
		return 0
	}
	// −1+√(1+x) written as x/(1+√(1+x)): the direct form cancels
	// catastrophically for small γ and would break the γ→0 continuity.
	num, bb := 4*p.Gamma*m*m*d, b*b
	x := num / bb
	if math.IsInf(num, 1) || math.IsInf(bb, 1) || math.IsInf(x, 1) {
		return kappaScaled(p.Gamma, m, b, d)
	}
	return b / (2 * p.Gamma * m * m) * (x / (1 + math.Sqrt(1+x)))
}

// kappaScaled is kappaAt's root where x = 4γm²d/b² cannot be formed:
// 4γm²d overflows (for γ > 1/4 that happens while θ is still finite),
// b² does (a unit time or σ past ~1.3e154), or their quotient does.
// r = √x = 2(m/b)·√γ·√d has factors that stay finite. For r > 1 the root
// is √d/(√γ·m) · r/(1+√(1+r²)), and dividing the last factor's terms by r
// leaves only terms of at most √2; otherwise it is (d/b)·2/(1+√(1+r²)),
// which stays right when r underflows.
func kappaScaled(gamma, m, b, d float64) float64 {
	r := 2 * (m / b) * math.Sqrt(gamma) * math.Sqrt(d)
	if r <= 1 {
		return d / b * (2 / (1 + math.Hypot(1, r)))
	}
	q := 1 / r
	return math.Sqrt(d) / (math.Sqrt(gamma) * m) / (q + math.Hypot(q, 1))
}

// WaterFill solves the split on θ: Σκᵢ(θ) is continuous and
// non-decreasing, so solve.Level brackets the θ with Σκᵢ(θ) = Load, θ is
// the bracket's midpoint, and κ is rescaled to sum to Load exactly (the
// bisection residual would otherwise leak into the tiling).
func WaterFill(p Params) (Split, error) {
	n := len(p.Unit)
	if n == 0 {
		return Split{}, fmt.Errorf("%w: no workers", ErrBadParams)
	}
	if p.Load <= 0 || math.IsNaN(p.Load) || math.IsInf(p.Load, 0) {
		return Split{}, fmt.Errorf("%w: load %v", ErrBadParams, p.Load)
	}
	if p.Gamma < 0 || math.IsNaN(p.Gamma) || math.IsInf(p.Gamma, 0) {
		return Split{}, fmt.Errorf("%w: gamma %v", ErrBadParams, p.Gamma)
	}
	if p.Comm != nil && len(p.Comm) != n {
		return Split{}, fmt.Errorf("%w: %d overheads for %d workers", ErrBadParams, len(p.Comm), n)
	}
	if p.Sigma != nil && len(p.Sigma) != n {
		return Split{}, fmt.Errorf("%w: %d sigmas for %d workers", ErrBadParams, len(p.Sigma), n)
	}
	for i, m := range p.Unit {
		if m <= 0 || math.IsNaN(m) || math.IsInf(m, 0) {
			return Split{}, fmt.Errorf("%w: worker %d unit time %v", ErrBadParams, i, m)
		}
		if p.Comm != nil && (p.Comm[i] < 0 || math.IsNaN(p.Comm[i]) || math.IsInf(p.Comm[i], 0)) {
			return Split{}, fmt.Errorf("%w: worker %d overhead %v", ErrBadParams, i, p.Comm[i])
		}
		if p.Sigma != nil && (p.Sigma[i] < 0 || math.IsNaN(p.Sigma[i]) || math.IsInf(p.Sigma[i], 0)) {
			return Split{}, fmt.Errorf("%w: worker %d sigma %v", ErrBadParams, i, p.Sigma[i])
		}
	}
	// total fills kappa with each worker's load at water level theta and
	// returns their sum.
	kappa := make([]float64, n)
	total := func(theta float64) float64 {
		s := 0.0
		for i := range kappa {
			kappa[i] = kappaAt(p, i, theta)
			s += kappa[i]
		}
		return s
	}
	lo, hi, err := solve.Level(total, p.Load, func(hi float64) float64 { return 1e-14 * hi })
	if err != nil {
		return Split{}, fmt.Errorf("%w: Σκ(θ) never reaches load %v: %w", ErrInfeasible, p.Load, err)
	}
	theta := 0.5 * (lo + hi)
	sum := total(theta)
	if sum <= 0 {
		return Split{}, fmt.Errorf("%w: water level θ=%v loads no worker", ErrInfeasible, theta)
	}
	scale := p.Load / sum
	for i := range kappa {
		kappa[i] *= scale
	}
	return Split{Kappa: kappa, Theta: theta}, nil
}
