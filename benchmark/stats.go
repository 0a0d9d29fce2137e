package main

import (
	"math"
	"math/rand"
	"sort"
)

// windows is how many equal, consecutive windows a run's ops are cut into.
// A timing statistic is taken per window and the median over the windows
// is reported: one host hiccup, or two, cannot move a run, and a slowdown
// that covers most of the run still does.
const windows = 5

// windowMedian cuts n ordered samples into min(windows, n) windows of
// equal size (to rounding), applies stat to each window [lo, hi) and
// returns the median of the results. No sample yields NaN.
func windowMedian(n int, stat func(lo, hi int) float64) float64 {
	k := min(windows, n)
	vals := make([]float64, k)
	for w := range vals {
		vals[w] = stat(w*n/k, (w+1)*n/k)
	}
	return median(vals)
}

// percentile is the nearest-rank q-quantile (0 < q ≤ 1) of xs: the
// smallest sample with at least q of the samples at or below it. It
// never interpolates, so every reported latency is one a caller saw.
// Empty input yields NaN.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

// median is the middle sample, or the mean of the two middle ones.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method): position
// k·(n+1)/4 in the sorted sample, interpolated, clamped to the ends.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(math.Floor(pos))
		switch {
		case j < 1:
			return s[0]
		case j >= len(s):
			return s[len(s)-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	if len(s) == 0 {
		return math.NaN(), math.NaN()
	}
	return at(1), at(3)
}

// poissonSchedule returns n due times in [0, horizon), in order. The
// horizon is cut into `windows` equal strata, each gets its equal share
// of the n arrivals as independent uniform draws, and all are sorted:
// a Poisson stream of rate n/horizon conditioned on its count in every
// stratum. Gaps are exponential and bursts and lulls differ from seed to
// seed, but every seed offers exactly the same load over every fifth of
// the run, so the windows of a run see the same load too.
func poissonSchedule(r *rand.Rand, n int, horizon float64) []float64 {
	due := make([]float64, 0, n)
	width := horizon / windows
	for s := 0; s < windows; s++ {
		for k := (s+1)*n/windows - s*n/windows; k > 0; k-- {
			due = append(due, width*(float64(s)+r.Float64()))
		}
	}
	sort.Float64s(due)
	return due
}
