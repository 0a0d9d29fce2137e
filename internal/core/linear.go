package core

import (
	"fmt"

	"nlfl/internal/dlt"
	"nlfl/internal/platform"
	"nlfl/internal/samplesort"
)

// LinearPlan is the distribution plan for a genuinely divisible (linear)
// load: the classical DLT allocation.
type LinearPlan struct {
	// Fractions[i] is worker i's share αᵢ.
	Fractions []float64
	// Makespan is the closed-form completion time.
	Makespan float64
	// EqualSplitMakespan is the naive baseline for comparison.
	EqualSplitMakespan float64
}

// Speedup returns the gain of the optimal allocation over the equal
// split.
func (p LinearPlan) Speedup() float64 {
	if p.Makespan == 0 {
		return 0
	}
	return p.EqualSplitMakespan / p.Makespan
}

// PlanLinear returns the optimal single-round DLT allocation of a linear
// load of n units under the paper's parallel-links model — the
// Divisible-verdict branch of the planner.
func PlanLinear(pl *platform.Platform, n float64) (LinearPlan, error) {
	opt, err := dlt.OptimalParallel(pl, n)
	if err != nil {
		return LinearPlan{}, err
	}
	eq := dlt.EqualSplit(pl, n)
	return LinearPlan{
		Fractions:          opt.Fractions,
		Makespan:           opt.Makespan,
		EqualSplitMakespan: eq.Makespan,
	}, nil
}

// SortPlan is the distribution plan for an N·log N load: sample-sort
// pre-processing plus speed-proportional (or log-balanced) bucket shares.
type SortPlan struct {
	// Shares[i] is the fraction of keys bucket i should receive.
	Shares []float64
	// Oversampling is the splitter oversampling ratio s = ⌈log²N⌉.
	Oversampling int
	// NonDivisibleFraction is log p / log N.
	NonDivisibleFraction float64
	// Balanced reports whether the shares correct for the log factor.
	Balanced bool
}

// PlanSort returns the bucket plan for sorting n keys on the platform —
// the AlmostDivisible-verdict branch of the planner. With balanced=true
// the shares equalize wᵢ·nᵢ·log nᵢ exactly (the SortHeterogeneousBalanced
// refinement); otherwise they are the paper's speed-proportional shares.
func PlanSort(pl *platform.Platform, n int, balanced bool) (SortPlan, error) {
	if n < 1 {
		return SortPlan{}, fmt.Errorf("core: invalid key count %d", n)
	}
	var shares []float64
	if balanced {
		var err error
		if shares, err = samplesort.BalancedShares(pl.Speeds(), n); err != nil {
			return SortPlan{}, err
		}
	} else {
		shares = pl.NormalizedSpeeds()
	}
	return SortPlan{
		Shares:               shares,
		Oversampling:         samplesort.DefaultOversampling(n),
		NonDivisibleFraction: samplesort.NonDivisibleFraction(n, pl.P()),
		Balanced:             balanced,
	}, nil
}
