package outer

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"nlfl/internal/partition"
	"nlfl/internal/platform"
)

// Result reports one strategy's outcome on one platform.
type Result struct {
	// Strategy names the policy ("hom", "hom/k", "het").
	Strategy string
	// Volume is the total data shipped, in vector elements (for an N×N
	// computational domain, i.e. vectors of length N).
	Volume float64
	// Ratio is Volume / LowerBound — the quantity plotted in Figure 4.
	Ratio float64
	// Imbalance is the achieved load imbalance e = (t_max - t_min)/t_min
	// (0 for strategies that balance perfectly by construction).
	Imbalance float64
	// K is the block-refinement factor used (Comm_hom/k only; 1 otherwise).
	K int
	// Blocks is the number of chunks distributed.
	Blocks int
	// PerWorker[i] is the data volume received by worker i (the memory
	// footprint of Figure 2).
	PerWorker []float64
}

// String renders the result on one line.
func (r Result) String() string {
	return fmt.Sprintf("%s: volume=%.4g ratio=%.4f e=%.4g k=%d blocks=%d",
		r.Strategy, r.Volume, r.Ratio, r.Imbalance, r.K, r.Blocks)
}

// LowerBound returns LB_comm = 2N·Σ√xᵢ: every worker is handed an ideal
// square of area xᵢ·N², paying 2·√xᵢ·N of data — no valid load-balanced
// layout can pay less.
func LowerBound(p *platform.Platform, n float64) float64 {
	return lowerBound(p.NormalizedSpeeds(), n)
}

// lowerBound is LowerBound on the normalized speeds xs.
func lowerBound(xs []float64, n float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += math.Sqrt(x)
	}
	return 2 * n * s
}

// Commhom returns the idealized Homogeneous Blocks analysis of
// Section 4.1.1: blocks of side D = √x₁·N, exactly nᵢ = xᵢ/x₁ of them per
// worker (fractional nᵢ allowed — this is the paper's closed form), for a
// total volume 2N·√(Σsᵢ/s₁). Imbalance is 0 by construction.
func Commhom(p *platform.Platform, n float64) Result {
	xs := p.NormalizedSpeeds()
	x1 := 1.0
	for _, x := range xs {
		if x < x1 {
			x1 = x
		}
	}
	d := math.Sqrt(x1) * n
	blocks := 1 / x1
	volume := blocks * 2 * d // = 2N/√x₁ = 2N·√(Σs/s₁)
	per := make([]float64, len(xs))
	for i, x := range xs {
		per[i] = x / x1 * 2 * d
	}
	return Result{
		Strategy:  "hom",
		Volume:    volume,
		Ratio:     volume / lowerBound(xs, n),
		K:         1,
		Blocks:    int(math.Round(blocks)),
		PerWorker: per,
	}
}

// demandCounts computes the block counts a demand-driven distribution of b
// identical blocks produces on workers with the given speeds: every worker
// claims a new block the moment it finishes one (first claim at time 0),
// the m-th claim of worker i landing at time m/sᵢ; blocks go to the
// earliest claims, ties to the lowest worker index. It writes the counts
// into dst when dst has room for them, and returns them. The claims up to
// a threshold time come from a bisection (claimHorizon) rather than a
// heap, and at most p of them are dropped again, so the Comm_hom/k
// refinement loop stays cheap even for millions of blocks. Speeds must be
// positive and finite (platform speeds are); any other speed would stall
// the bisection, so it panics instead.
func demandCounts(dst []int, speeds []float64, b int) []int {
	for i, s := range speeds {
		if !(s > 0) || math.IsInf(s, 0) {
			panic(fmt.Sprintf("outer: demandCounts: speed %d is %v, want positive and finite", i, s))
		}
	}
	p := len(speeds)
	var counts []int
	if cap(dst) >= p {
		counts = dst[:p]
	} else {
		counts = make([]int, p)
	}
	if b <= 0 {
		clear(counts)
		return counts
	}
	if p == 0 {
		panic("outer: demandCounts: no workers to claim blocks")
	}
	hi, _ := claimHorizon(speeds, b)
	total := 0
	for i, s := range speeds {
		counts[i] = int(hi*s) + 1
		total += counts[i]
	}
	// Remove the excess claims: latest claim time first, ties resolved by
	// dropping the highest worker index (demand-driven favors low indices
	// at equal times). The excess is at most p (one boundary claim per
	// worker), so the quadratic loop is negligible.
	for total > b {
		worst, worstTime := -1, -1.0
		for i := range counts {
			if counts[i] == 0 {
				continue
			}
			last := float64(counts[i]-1) / speeds[i]
			if last > worstTime || (last == worstTime && i > worst) {
				worst, worstTime = i, last
			}
		}
		counts[worst]--
		total--
	}
	return counts
}

// claimHorizon returns a time hi by which at least b ≥ 1 claims have
// landed on workers of the given positive, finite speeds, within
// 1e-15·(1+hi) of the time of the b-th claim, or at a time that counts
// exactly b; and the number of claim counts it took.
//
// Worker i has made ⌊t·sᵢ⌋+1 ∈ (t·sᵢ, t·sᵢ+1] claims by time t, so the p
// workers together have made between t·S and t·S+p, S = Σsᵢ: the b-th
// claim lands in [(b−p)/S, b/S], and the bisection starts from there.
// Only rounding (b·p near 2⁵³) or an S that overflows can leave fewer than
// b claims at b/S; the bracket then doubles until it holds them.
//
// It stays apart from solve.Level, which every real-valued equal-finish
// split uses: it counts integer claims, starts from the analytic bracket
// rather than from 1, and stops early on an exact hit.
func claimHorizon(speeds []float64, b int) (hi float64, counted int) {
	// countAt returns the number of claims with time ≤ t. The conversion
	// truncates, which is ⌊t·sᵢ⌋ on a product that is never negative (and
	// leaves a product past 2⁵² as it is, as math.Floor does); demandCounts
	// counts the same way.
	countAt := func(t float64) int {
		counted++
		total := 0
		for _, s := range speeds {
			total += int(t*s) + 1
		}
		return total
	}
	sum := 0.0
	for _, s := range speeds {
		sum += s
	}
	lo := max(0, float64(b-len(speeds))/sum)
	hi = float64(b) / sum
	for countAt(hi) < b {
		lo, hi = hi, max(2*hi, math.SmallestNonzeroFloat64)
	}
	for i := 0; i < 100 && hi-lo > 1e-15*(1+hi); i++ {
		mid := (lo + hi) / 2
		c := countAt(mid)
		if c == b {
			// Exact hit: any later hi ≤ mid also counts b claims, and
			// each ⌊hi·sᵢ⌋ is monotone in hi, so every per-worker count
			// is already final.
			return mid, counted
		}
		if c > b {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, counted
}

// imbalanceOf returns e = (t_max - t_min)/t_min for per-worker times
// tᵢ = countsᵢ/sᵢ (block work cancels). A worker with zero blocks makes
// the imbalance +Inf.
func imbalanceOf(speeds []float64, counts []int) float64 {
	tmin, tmax := math.Inf(1), 0.0
	for i, c := range counts {
		t := float64(c) / speeds[i]
		if t < tmin {
			tmin = t
		}
		if t > tmax {
			tmax = t
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

// blockCount returns the number of blocks of side D/k, D = √x₁·N, that
// cover the N×N domain: ⌈k²/x₁⌉.
func blockCount(k int, x1 float64) int {
	return int(math.Ceil(float64(k*k)/x1 - 1e-9))
}

// CommhomK runs the realistic Comm_hom/k strategy of Section 4.3: starting
// from the Comm_hom block size, the block side is divided by successive
// integers k until the demand-driven assignment's load imbalance is at
// most eps (the paper uses eps = 0.01). maxK caps the search; the paper's
// platforms converge within a few dozen refinements.
func CommhomK(p *platform.Platform, n float64, eps float64, maxK int) (Result, error) {
	if eps <= 0 {
		return Result{}, errors.New("outer: imbalance target must be positive")
	}
	if maxK <= 0 {
		maxK = 10000
	}
	xs := p.NormalizedSpeeds()
	speeds := p.Speeds()
	x1 := 1.0
	for _, x := range xs {
		if x < x1 {
			x1 = x
		}
	}
	var counts []int
	for k := 1; k <= maxK; k++ {
		blocks := blockCount(k, x1)
		counts = demandCounts(counts, speeds, blocks)
		e := imbalanceOf(speeds, counts)
		if e <= eps || k == maxK {
			if e > eps {
				return Result{}, fmt.Errorf("outer: imbalance %v still above %v at k=%d", e, eps, k)
			}
			blockData := 2 * math.Sqrt(x1) * n / float64(k)
			per := make([]float64, len(counts))
			volume := 0.0
			for i, c := range counts {
				per[i] = float64(c) * blockData
				volume += per[i]
			}
			return Result{
				Strategy:  "hom/k",
				Volume:    volume,
				Ratio:     volume / lowerBound(xs, n),
				Imbalance: e,
				K:         k,
				Blocks:    blocks,
				PerWorker: per,
			}, nil
		}
	}
	return Result{}, errors.New("outer: unreachable")
}

// roundedCounts assigns b blocks statically: nᵢ = ⌊xᵢ·b⌋ plus one extra
// for the largest fractional remainders (largest-remainder rounding).
// Compared to the demand-driven claim process this halves the worst-case
// per-worker rounding error, so the Comm_hom/k refinement converges at a
// smaller k.
func roundedCounts(xs []float64, b int) []int {
	counts := make([]int, len(xs))
	type frac struct {
		idx int
		rem float64
	}
	rems := make([]frac, len(xs))
	total := 0
	for i, x := range xs {
		exact := x * float64(b)
		counts[i] = int(math.Floor(exact))
		rems[i] = frac{idx: i, rem: exact - math.Floor(exact)}
		total += counts[i]
	}
	sort.Slice(rems, func(a, c int) bool {
		if rems[a].rem != rems[c].rem {
			return rems[a].rem > rems[c].rem
		}
		return rems[a].idx < rems[c].idx
	})
	for k := 0; total < b; k++ {
		counts[rems[k%len(rems)].idx]++
		total++
	}
	return counts
}

// CommhomKRounded is the Comm_hom/k refinement with static largest-
// remainder rounding in place of the demand-driven claim process — the
// other natural reading of the paper's "these numbers have to be rounded
// to integers". It reaches the 1% imbalance target at smaller k, landing
// the p=100 ratios inside the paper's reported 15–30× band (see
// EXPERIMENTS.md).
func CommhomKRounded(p *platform.Platform, n float64, eps float64, maxK int) (Result, error) {
	if eps <= 0 {
		return Result{}, errors.New("outer: imbalance target must be positive")
	}
	if maxK <= 0 {
		maxK = 10000
	}
	xs := p.NormalizedSpeeds()
	speeds := p.Speeds()
	x1 := 1.0
	for _, x := range xs {
		if x < x1 {
			x1 = x
		}
	}
	for k := 1; k <= maxK; k++ {
		blocks := blockCount(k, x1)
		counts := roundedCounts(xs, blocks)
		e := imbalanceOf(speeds, counts)
		if e <= eps {
			blockData := 2 * math.Sqrt(x1) * n / float64(k)
			per := make([]float64, len(counts))
			volume := 0.0
			for i, c := range counts {
				per[i] = float64(c) * blockData
				volume += per[i]
			}
			return Result{
				Strategy:  "hom/k-rounded",
				Volume:    volume,
				Ratio:     volume / lowerBound(xs, n),
				Imbalance: e,
				K:         k,
				Blocks:    blocks,
				PerWorker: per,
			}, nil
		}
	}
	return Result{}, fmt.Errorf("outer: imbalance target unreached within k ≤ %d", maxK)
}

// Commhet runs the Heterogeneous Blocks strategy of Section 4.1.2: one
// rectangle per worker with area proportional to its speed, laid out by
// the PERI-SUM column-based partitioner; worker i pays (wᵢ+hᵢ)·N of data.
// Load balance is perfect by construction (areas match speeds exactly).
func Commhet(p *platform.Platform, n float64) (Result, error) {
	part, err := partition.PeriSum(p.Speeds())
	if err != nil {
		return Result{}, err
	}
	if err := part.Validate(); err != nil {
		return Result{}, fmt.Errorf("outer: invalid partition: %w", err)
	}
	// part.Areas are the normalized speeds, bit for bit: Normalize divides
	// each speed by the same left-to-right sum the platform keeps.
	// Validate guarantees each index exactly one rectangle.
	per := make([]float64, p.P())
	for _, r := range part.Rects {
		per[r.Index] = r.HalfPerimeter() * n
	}
	volume := 0.0
	for _, v := range per {
		volume += v
	}
	return Result{
		Strategy:  "het",
		Volume:    volume,
		Ratio:     volume / lowerBound(part.Areas, n),
		K:         1,
		Blocks:    p.P(),
		PerWorker: per,
	}, nil
}

// BlockAssignment replays the demand-driven distribution of the g×g
// homogeneous blocks in scan order and returns the worker owning each
// block — the data behind the paper's Figure 2(b): a fast processor's
// footprint is scattered over the whole domain instead of forming one
// compact rectangle.
func BlockAssignment(p *platform.Platform, g int) ([][]int, error) {
	if g <= 0 {
		return nil, errors.New("outer: grid must be positive")
	}
	speeds := p.Speeds()
	grid := make([][]int, g)
	for i := range grid {
		grid[i] = make([]int, g)
	}
	counts := make([]int, p.P())
	for b := 0; b < g*g; b++ {
		best, bestTime := -1, math.Inf(1)
		for w, s := range speeds {
			claim := float64(counts[w]) / s
			if claim < bestTime {
				best, bestTime = w, claim
			}
		}
		counts[best]++
		grid[b/g][b%g] = best
	}
	return grid, nil
}

// RenderBlockAssignment draws the assignment as ASCII, one glyph per
// block, matching the glyph set of partition.(*Partition).ASCII.
func RenderBlockAssignment(grid [][]int) string {
	const glyphs = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
	var b []byte
	b = append(b, '+')
	for range grid {
		b = append(b, '-')
	}
	b = append(b, '+', '\n')
	for _, row := range grid {
		b = append(b, '|')
		for _, w := range row {
			b = append(b, glyphs[w%len(glyphs)])
		}
		b = append(b, '|', '\n')
	}
	b = append(b, '+')
	for range grid {
		b = append(b, '-')
	}
	b = append(b, '+', '\n')
	return string(b)
}

// RhoLowerBound returns (1+k)/(1+√k), the value the paper's Section
// 4.1.3 gives for ρ = Comm_hom/Comm_het on the half-slow/half-k×-fast
// platform. On that platform it is exactly Comm_hom/LB, so, as
// Comm_het ≥ LB, ρ is at most this value and reaches it only where
// Comm_het = LB. It exceeds √k - 1, but ρ itself need not: on 20 workers
// ρ < √k - 1 at k = 64 and 100 (TestRhoBimodalCounterexamples).
func RhoLowerBound(k float64) float64 {
	return (1 + k) / (1 + math.Sqrt(k))
}

// RhoAnalytic returns the general analytic bound
// ρ ≥ (4/7)·Σsᵢ/(√s₁·Σ√sᵢ) from Section 4.1.3. It is derived from
// PERI-SUM's 7/4 bound, so like that bound it is observed on the paper's
// distributions, not guaranteed: on the skewed platforms of
// partition.TestPeriSumSkewedCounterexamples, Comm_hom/Comm_het falls
// below it.
func RhoAnalytic(p *platform.Platform) float64 {
	speeds := p.Speeds()
	s1 := math.Inf(1)
	sum, sqsum := 0.0, 0.0
	for _, s := range speeds {
		if s < s1 {
			s1 = s
		}
		sum += s
		sqsum += math.Sqrt(s)
	}
	return 4.0 / 7.0 * sum / (math.Sqrt(s1) * sqsum)
}

// WeightedCommTime returns Σ cᵢ·Dᵢ — the aggregate communication *time*
// (rather than volume) of a strategy's per-worker footprints when link
// capacities differ (the fully heterogeneous platform of Section 1.2,
// which the Figure 4 volume metric deliberately sets aside). Under the
// parallel-links model the makespan contribution is max cᵢ·Dᵢ, also
// returned.
func WeightedCommTime(p *platform.Platform, r Result) (total, worst float64) {
	for i, d := range r.PerWorker {
		t := p.Worker(i).CommTime(d)
		total += t
		if t > worst {
			worst = t
		}
	}
	return total, worst
}
