package samplesort

import (
	"cmp"
	"errors"
	"fmt"
	"math"

	"nlfl/internal/platform"
	"nlfl/internal/solve"
)

// HeteroTrace extends Trace with the speed-aware balance metrics of
// Section 3.2.
type HeteroTrace struct {
	Trace
	// Speeds echoes the worker speeds.
	Speeds []float64
	// SortTimes[i] = wᵢ·nᵢ·log nᵢ, the modelled time for worker i to sort
	// its bucket.
	SortTimes []float64
}

// Imbalance returns (t_max - t_min)/t_min over the modelled bucket sort
// times — Section 3.2's claim is that this vanishes as N grows because
// bucket i receives a share proportional to 1/wᵢ.
func (t HeteroTrace) Imbalance() float64 {
	tmin, tmax := math.Inf(1), 0.0
	for _, v := range t.SortTimes {
		if v < tmin {
			tmin = v
		}
		if v > tmax {
			tmax = v
		}
	}
	if tmax == 0 {
		return 0
	}
	if tmin == 0 {
		return math.Inf(1)
	}
	return (tmax - tmin) / tmin
}

// SortHeterogeneous sample-sorts xs for a heterogeneous platform: bucket i
// is sized proportionally to worker i's speed by placing the splitters at
// speed-weighted ranks in the sorted sample (Section 3.2), so that
// sorting bucket i on worker i takes wᵢ·nᵢ·log nᵢ ≈ constant across
// workers up to the log factor. The input is not modified.
func SortHeterogeneous[T cmp.Ordered](xs []T, plat *platform.Platform, cfg Config) ([]T, HeteroTrace, error) {
	return sortWithShares(xs, plat, plat.NormalizedSpeeds(), cfg)
}

// SortHeterogeneousBalanced is the refinement Section 3.2 leaves implicit:
// the paper's speed-proportional buckets still differ in per-key cost by
// the factor log nᵢ (the imbalance decays only like 1/log N). This
// variant solves nᵢ·log₂ nᵢ = T·sᵢ with Σnᵢ = N instead, equalizing the
// modelled sort times exactly and removing the log-factor imbalance.
func SortHeterogeneousBalanced[T cmp.Ordered](xs []T, plat *platform.Platform, cfg Config) ([]T, HeteroTrace, error) {
	shares, err := BalancedShares(plat.Speeds(), len(xs))
	if err != nil {
		return nil, HeteroTrace{}, err
	}
	return sortWithShares(xs, plat, shares, cfg)
}

// BalancedShares returns bucket fractions fᵢ with fᵢ·N·log₂(fᵢ·N) ∝ sᵢ
// and Σfᵢ = 1, by solve.Level on the common time around an exact solve
// for each share. For n < 4 it falls back to speed-proportional shares
// (logs degenerate). It rejects an empty speed list, any speed that is not
// positive and finite, and speeds so small that no finite time balances n
// keys.
func BalancedShares(speeds []float64, n int) ([]float64, error) {
	if len(speeds) == 0 {
		return nil, errors.New("samplesort: no speeds to balance")
	}
	total := 0.0
	for i, s := range speeds {
		if !(s > 0) || math.IsInf(s, 0) {
			return nil, fmt.Errorf("samplesort: speed %d is %v, want positive and finite", i, s)
		}
		total += s
	}
	out := make([]float64, len(speeds))
	if n < 4 {
		for i, s := range speeds {
			out[i] = s / total
		}
		return out, nil
	}
	// sumAt fills out with each bucket's size at common time t and
	// returns their sum.
	sumAt := func(t float64) float64 {
		sum := 0.0
		for i, s := range speeds {
			out[i] = sortSize(t * s)
			sum += out[i]
		}
		return sum
	}
	_, tHi, err := solve.Level(sumAt, float64(n), func(hi float64) float64 { return 1e-12 * (1 + hi) })
	if err != nil {
		return nil, fmt.Errorf("samplesort: no finite time balances %d keys: %w", n, err)
	}
	sum := sumAt(tHi)
	for i := range out {
		out[i] /= sum
	}
	return out, nil
}

// sortWithShares runs Sort's three steps with shareRank's splitters.
func sortWithShares[T cmp.Ordered](xs []T, plat *platform.Platform, shares []float64, cfg Config) ([]T, HeteroTrace, error) {
	p := plat.P()
	cfg.Workers = p
	splitters, tr, err := route(len(xs), sliceKeys(xs), cfg, shareRank(shares))
	ht := HeteroTrace{Trace: tr, Speeds: plat.Speeds()}
	if err != nil {
		return nil, ht, err
	}
	ht.SortTimes = make([]float64, p)
	for i, n := range tr.BucketSizes {
		ht.SortTimes[i] = sortWork(n) / plat.Worker(i).Speed
	}
	if len(xs) == 0 {
		return nil, ht, nil
	}
	return scatterSort(xs, splitters, tr.BucketSizes, cfg.Sequential), ht, nil
}

// shareRank places splitter i at the cumulative share of buckets 0…i-1 of
// the sorted m-key sample, for len(shares) buckets.
func shareRank(shares []float64) func(i, m int) int {
	// Summed one share at a time in bucket order: another order can round
	// cum·m, and so a splitter, to a neighbouring rank.
	cum := make([]float64, len(shares)-1)
	sum := 0.0
	for i := range cum {
		sum += shares[i]
		cum[i] = sum
	}
	return func(i, m int) int { return int(cum[i-1] * float64(m)) }
}

// sortSize returns the largest x ≥ 1 with x·log₂x ≤ budget: 1 for a
// budget that is not positive, +Inf for an infinite one.
func sortSize(budget float64) float64 {
	if budget <= 0 || math.IsInf(budget, 1) {
		return max(budget, 1)
	}
	return solve.Largest(sortCost, budget, 1, sortStart(budget))
}

// sortStart is where sortSize's solve starts, for a finite positive
// budget. Past x = 2 the cost is at least x, so the root r is at most
// budget, hence r = budget/log₂r is at most
// budget/log₂(budget/log₂budget); Newton starts from the lesser bound.
func sortStart(budget float64) float64 {
	if budget <= 2 {
		return 2
	}
	return min(budget, budget/math.Log2(budget/math.Log2(budget)))
}

// sortCost is x·log₂x, the comparisons of sorting x keys, with its slope
// log₂x + 1/ln 2.
func sortCost(x float64) (float64, float64) {
	l := math.Log2(x)
	return x * l, l + math.Log2E
}
