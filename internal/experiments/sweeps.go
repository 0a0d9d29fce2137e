package experiments

import (
	"fmt"
	"math"

	"nlfl/internal/mapreduce"
	"nlfl/internal/nldlt"
	"nlfl/internal/outer"
	"nlfl/internal/partition"
	"nlfl/internal/platform"
	"nlfl/internal/plot"
	"nlfl/internal/samplesort"
	"nlfl/internal/stats"
)

// NonLinearTable reproduces Section 2 (experiment E1): the unprocessed
// fraction 1 - 1/P^(α-1) for a grid of platform sizes and exponents, from
// the closed form and from solved optimal allocations.
func NonLinearTable(ps []int, alphas []float64, n float64) (*plot.Table, []nldlt.FractionRow, error) {
	rows, err := nldlt.FractionSweep(ps, alphas, n)
	if err != nil {
		return nil, nil, err
	}
	t := plot.NewTable("α", "P", "closed form", "equal split", "optimal ∥", "optimal 1-port")
	for _, r := range rows {
		t.AddRowf(r.Alpha, r.P, r.ClosedForm, r.EqualSplit, r.Parallel, r.OnePort)
	}
	return t, rows, nil
}

// RhoPoint is one heterogeneity level of the E6 sweep.
type RhoPoint struct {
	K float64
	// Measured is Comm_hom/Comm_het on the half-slow/half-k×-fast
	// platform.
	Measured float64
	// IdealBound is (1+k)/(1+√k); SimpleBound is √k-1; AnalyticBound is
	// (4/7)·Σs/(√s₁Σ√s).
	IdealBound, SimpleBound, AnalyticBound float64
}

// RhoSweep reproduces the Section 4.1.3 example: platforms whose first
// half runs at speed 1 and second half at speed k, for each k.
func RhoSweep(ks []float64, p int, n float64) ([]RhoPoint, error) {
	if p < 2 || p%2 != 0 {
		return nil, fmt.Errorf("experiments: rho sweep needs an even p ≥ 2, got %d", p)
	}
	out := make([]RhoPoint, 0, len(ks))
	for _, k := range ks {
		speeds := make([]float64, p)
		for i := range speeds {
			speeds[i] = 1
			if i >= p/2 {
				speeds[i] = k
			}
		}
		pl, err := platform.FromSpeeds(speeds)
		if err != nil {
			return nil, err
		}
		hom := outer.Commhom(pl, n)
		het, err := outer.Commhet(pl, n)
		if err != nil {
			return nil, err
		}
		out = append(out, RhoPoint{
			K:             k,
			Measured:      hom.Volume / het.Volume,
			IdealBound:    outer.RhoLowerBound(k),
			SimpleBound:   math.Sqrt(k) - 1,
			AnalyticBound: outer.RhoAnalytic(pl),
		})
	}
	return out, nil
}

// RhoTable renders an E6 sweep.
func RhoTable(points []RhoPoint) *plot.Table {
	t := plot.NewTable("k", "measured ρ", "(1+k)/(1+√k)", "√k-1", "(4/7)·bound")
	for _, pt := range points {
		t.AddRowf(pt.K, pt.Measured, pt.IdealBound, pt.SimpleBound, pt.AnalyticBound)
	}
	return t
}

// PartitionQualityRow is one (distribution, p) cell of the E12 sweep.
type PartitionQualityRow struct {
	Dist      string
	P         int
	MeanRatio float64
	MaxRatio  float64
}

// PartitionQuality measures Ĉ/LB for the PERI-SUM partitioner across
// speed distributions and platform sizes — the paper's observation that
// the column-based algorithm does far better in practice (≈2%) than its
// stated 7/4 bound, which is observed on the paper's distributions, not
// guaranteed (partition.TestPeriSumSkewedCounterexamples).
func PartitionQuality(ps []int, trials int, seed int64) ([]PartitionQualityRow, error) {
	runs, err := partitionQualityRuns(ps, []int{trials}, seed)
	if err != nil {
		return nil, err
	}
	return runs[0], nil
}

// partitionQualityRuns is PartitionQuality at each trial count of counts,
// from the one seed: run k's rows are PartitionQuality(ps, counts[k],
// seed)'s. Every run draws its per-point trial seeds from its own root
// seeded with seed, so at the j-th point a run of n trials uses the
// stream's seeds nj … nj+n−1, and runs of nearby counts share most of
// them (the 51- and 50-trial runs of `nlfl all` share 50 − j). A trial's
// outcome depends on its point and seed alone, so each distinct one runs
// once, on the generator Split would have made from that seed, and each
// run folds its own trials in trial order. At a stats.Constant point the
// trials cannot differ, so one trial serves every run, as perTrialOnce's
// one trial serves a single run.
func partitionQualityRuns(ps []int, counts []int, seed int64) ([][]PartitionQualityRow, error) {
	roots := make([]*stats.RNG, len(counts))
	for k, n := range counts {
		if n <= 0 {
			return nil, fmt.Errorf("experiments: trials must be positive")
		}
		roots[k] = stats.NewRNG(seed)
	}
	dists := []stats.Distribution{
		stats.Constant{Value: 1},
		stats.Uniform{Lo: 1, Hi: 100},
		stats.LogNormal{Mu: 0, Sigma: 1},
	}
	runs := make([][]PartitionQualityRow, len(counts))
	seeds := make([][]int64, len(counts))
	for _, d := range dists {
		_, constant := d.(stats.Constant)
		for _, p := range ps {
			// at maps each seed of the point to its trial in distinct.
			at := make(map[int64]int)
			var distinct []int64
			for k, root := range roots {
				seeds[k] = seeds[k][:0]
				for range counts[k] {
					s := root.Int63()
					seeds[k] = append(seeds[k], s)
					if _, ok := at[s]; ok {
						continue
					}
					if constant && len(distinct) == 1 {
						at[s] = 0
						continue
					}
					at[s] = len(distinct)
					distinct = append(distinct, s)
				}
			}
			trial := qualityTrial(d, p)
			ratios := make([]float64, len(distinct))
			if err := parallel(len(distinct), func(i int) (err error) {
				ratios[i], err = trial(stats.NewRNG(distinct[i]))
				return err
			}); err != nil {
				return nil, err
			}
			for k := range runs {
				var w stats.Welford
				for _, s := range seeds[k] {
					w.Add(ratios[at[s]])
				}
				runs[k] = append(runs[k], PartitionQualityRow{
					Dist: d.String(), P: p, MeanRatio: w.Mean(), MaxRatio: w.Max(),
				})
			}
		}
	}
	return runs, nil
}

// qualityTrial returns one E12 trial: p areas drawn from d, and the
// ratio Ĉ/LB of their PERI-SUM partition.
func qualityTrial(d stats.Distribution, p int) func(r *stats.RNG) (float64, error) {
	return func(r *stats.RNG) (float64, error) {
		part, err := partition.PeriSum(stats.SampleN(d, r, p))
		if err != nil {
			return 0, err
		}
		return part.SumHalfPerimeters() / partition.LowerBound(part.Areas), nil
	}
}

// PartitionQualityTable renders the E12 sweep.
func PartitionQualityTable(rows []PartitionQualityRow) *plot.Table {
	t := plot.NewTable("distribution", "p", "mean Ĉ/LB", "max Ĉ/LB")
	for _, r := range rows {
		t.AddRowf(r.Dist, r.P, r.MeanRatio, r.MaxRatio)
	}
	return t
}

// SortScalingRow is one N of the E3 sweep.
type SortScalingRow struct {
	N int
	// Fraction is log p / log N, the non-divisible share.
	Fraction float64
	// MaxBucketRatio is the measured MaxBucket/(N/p).
	MaxBucketRatio float64
	// Threshold is the Theorem B.4 bound on that ratio.
	Threshold float64
	// ModelSpeedup is the Section 3.1 cost model's speedup on p workers.
	ModelSpeedup float64
}

// SortScaling reproduces the Section 3 analysis: for growing N on p
// homogeneous workers, the non-divisible fraction and the bucket
// concentration both improve. Only bucket sizes are read, so the keys are
// routed and counted, not sorted, and never stored: row k's keys are the
// seeded generator's draws after the earlier rows' keys and route seeds.
// A clone of the generator taken at the row's start draws them again, a
// block of sortBlock keys at a time, for each of the router's walks.
func SortScaling(ns []int, p int, seed int64) ([]SortScalingRow, error) {
	r := stats.NewRNG(seed)
	buf := make([]float64, sortBlock)
	// draw passes the next n keys of g to visit, a block at a time.
	draw := func(g *stats.RNG, n int, visit func([]float64)) {
		for ; n > 0; n -= len(buf) {
			block := buf[:min(n, len(buf))]
			g.Float64s(block)
			visit(block)
		}
	}
	rows := make([]SortScalingRow, 0, len(ns))
	for _, n := range ns {
		start := r.Clone()
		keys := func(visit func([]float64)) { draw(start.Clone(), n, visit) }
		draw(r, n, func([]float64) {}) // on to the row's route seed
		tr, err := samplesort.RouteStream(n, keys, samplesort.Config{Workers: p, Seed: r.Int63()})
		if err != nil {
			return nil, err
		}
		// Like MaxBucketRatio, the threshold ratio of an empty input is 0.
		threshold := 0.0
		if n > 0 {
			threshold = samplesort.TheoremB4Threshold(n, p) / (float64(n) / float64(p))
		}
		rows = append(rows, SortScalingRow{
			N:              n,
			Fraction:       samplesort.NonDivisibleFraction(n, p),
			MaxBucketRatio: tr.MaxBucketRatio(),
			Threshold:      threshold,
			ModelSpeedup:   samplesort.Cost(float64(n), p, 0).Speedup(),
		})
	}
	return rows, nil
}

// sortBlock is the number of keys SortScaling draws into its buffer at a
// time: 32 kB, so the per-block calls cost nothing next to the keys, and
// a block is still in cache when the router reads it.
const sortBlock = 4096

// SortScalingTable renders the E3 sweep.
func SortScalingTable(rows []SortScalingRow, p int) *plot.Table {
	t := plot.NewTable("N", fmt.Sprintf("log p/log N (p=%d)", p), "max bucket ratio", "B.4 threshold", "model speedup")
	for _, r := range rows {
		t.AddRowf(r.N, r.Fraction, r.MaxBucketRatio, r.Threshold, r.ModelSpeedup)
	}
	return t
}

// MapReduceComparison reproduces E11: the menu of matmul data
// distributions for one problem size and one heterogeneous platform,
// scored by total communication volume (closed forms), with the ratios to
// the heterogeneity-aware layout.
func MapReduceComparison(n int, speeds []float64, gridR, gridC int) (*plot.Table, error) {
	if n <= 0 {
		return nil, fmt.Errorf("experiments: invalid matrix dimension %d", n)
	}
	part, err := partition.PeriSum(speeds)
	if err != nil {
		return nil, err
	}
	menu := mapreduce.CompareDistributions(n, gridR, gridC, part)
	het := menu[len(menu)-1].Volume
	t := plot.NewTable("distribution", "volume (elements)", "× vs heterogeneous")
	for _, d := range menu {
		t.AddRowf(d.Name, d.Volume, d.Volume/het)
	}
	return t, nil
}
