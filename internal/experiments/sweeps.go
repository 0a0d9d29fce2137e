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
// 7/4 worst-case guarantee.
func PartitionQuality(ps []int, trials int, seed int64) ([]PartitionQualityRow, error) {
	dists := []stats.Distribution{
		stats.Constant{Value: 1},
		stats.Uniform{Lo: 1, Hi: 100},
		stats.LogNormal{Mu: 0, Sigma: 1},
	}
	root := stats.NewRNG(seed)
	var rows []PartitionQualityRow
	for _, d := range dists {
		for _, p := range ps {
			ratios, err := perTrial(root, trials, func(r *stats.RNG) (float64, error) {
				areas := stats.SampleN(d, r, p)
				part, err := partition.PeriSum(areas)
				if err != nil {
					return 0, err
				}
				norm, err := partition.Normalize(areas)
				if err != nil {
					return 0, err
				}
				return part.SumHalfPerimeters() / partition.LowerBound(norm), nil
			})
			if err != nil {
				return nil, err
			}
			var w stats.Welford
			for _, ratio := range ratios {
				w.Add(ratio)
			}
			rows = append(rows, PartitionQualityRow{
				Dist: d.String(), P: p, MeanRatio: w.Mean(), MaxRatio: w.Max(),
			})
		}
	}
	return rows, nil
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
// concentration both improve.
func SortScaling(ns []int, p int, seed int64) ([]SortScalingRow, error) {
	r := stats.NewRNG(seed)
	rows := make([]SortScalingRow, 0, len(ns))
	for _, n := range ns {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64()
		}
		_, tr, err := samplesort.Sort(xs, samplesort.Config{Workers: p, Seed: r.Int63(), Sequential: true})
		if err != nil {
			return nil, err
		}
		rows = append(rows, SortScalingRow{
			N:              n,
			Fraction:       samplesort.NonDivisibleFraction(n, p),
			MaxBucketRatio: tr.MaxBucketRatio(),
			Threshold:      samplesort.TheoremB4Threshold(n, p) / (float64(n) / float64(p)),
			ModelSpeedup:   samplesort.Cost(float64(n), p, 0).Speedup(),
		})
	}
	return rows, nil
}

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
