package samplesort

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"nlfl/internal/stats"
)

// Config controls a sample sort run.
type Config struct {
	// Workers is p, the number of buckets / parallel sorters (≥ 1).
	Workers int
	// Oversampling is s; 0 selects the paper's log²N.
	Oversampling int
	// Seed drives splitter sampling; runs with equal seeds are identical.
	Seed int64
	// Sequential sorts the Step 3 buckets one after another on the
	// calling goroutine instead of one goroutine per bucket, for
	// single-thread profiling. The output and Trace do not change.
	Sequential bool
}

// Trace reports what happened in each phase, mirroring the quantities of
// Section 3.1's cost analysis.
type Trace struct {
	N            int
	Workers      int
	Oversampling int
	// SampleSize is s·p (clamped to N).
	SampleSize int
	// BucketSizes[i] is the number of keys routed to bucket i.
	BucketSizes []int
	// MaxBucket is max BucketSizes.
	MaxBucket int
	// Comparisons* count the comparison work per phase, the currency of
	// the paper's N·log N accounting.
	ComparisonsSample  float64 // Step 1: s·p·log(s·p)
	ComparisonsRouting float64 // Step 2: N·log p
	ComparisonsBuckets float64 // Step 3: Σ nᵢ·log nᵢ
}

// MaxBucketRatio returns MaxBucket / (N/p), the balance metric bounded by
// 1 + (1/log N)^(1/3) with high probability.
func (t Trace) MaxBucketRatio() float64 {
	if t.N == 0 {
		return 0
	}
	return float64(t.MaxBucket) / (float64(t.N) / float64(t.Workers))
}

// DefaultOversampling returns the paper's oversampling ratio s = ⌈log²N⌉
// (natural-log-free: log₂ is used throughout, as is conventional for
// comparison counts), with a floor of 1.
func DefaultOversampling(n int) int {
	if n < 2 {
		return 1
	}
	l := math.Log2(float64(n))
	s := int(math.Ceil(l * l))
	if s < 1 {
		s = 1
	}
	return s
}

// Route runs Steps 1 and 2 only: it selects the splitters, counts the keys
// each bucket receives and fills the whole Trace from those counts, Step
// 3's ComparisonsBuckets included. It copies no key: beyond the Trace it
// allocates only the s·p sample and the splitters. Its Trace equals Sort's
// for the same xs and cfg, so callers that read bucket sizes only (the
// Section 3 balance results) route instead of sorting.
func Route[T cmp.Ordered](xs []T, cfg Config) (Trace, error) {
	_, tr, err := route(xs, cfg, evenRank(cfg.Workers))
	return tr, err
}

// Sort sample-sorts xs into a new slice using cfg, returning the sorted
// keys and the phase trace. The input is not modified.
func Sort[T cmp.Ordered](xs []T, cfg Config) ([]T, Trace, error) {
	splitters, tr, err := route(xs, cfg, evenRank(cfg.Workers))
	if err != nil || len(xs) == 0 {
		return nil, tr, err
	}
	return scatterSort(xs, splitters, tr.BucketSizes, cfg.Sequential), tr, nil
}

// evenRank places splitter i at rank i·m/p of the sorted m-key sample, so
// every bucket expects N/p keys. One bucket needs no splitter, so for
// p = 1 it is nil and route draws no sample.
func evenRank(p int) func(i, m int) int {
	if p == 1 {
		return nil
	}
	return func(i, m int) int { return i * m / p }
}

// route is Steps 1 and 2 for every entry point. Step 1 draws min(s·p, N)
// random keys, sorts them and keeps the keys of ranks rank(1, m), …,
// rank(p-1, m) of the m-key sample as splitters (clamped to the sample;
// non-decreasing by construction). Step 2 counts the keys of each bucket.
// The returned Trace is complete.
func route[T cmp.Ordered](xs []T, cfg Config, rank func(i, m int) int) ([]T, Trace, error) {
	tr := Trace{N: len(xs), Workers: cfg.Workers, Oversampling: cfg.Oversampling}
	if cfg.Workers < 1 {
		return nil, tr, errors.New("samplesort: need at least one worker")
	}
	if tr.Oversampling == 0 {
		tr.Oversampling = DefaultOversampling(len(xs))
	}
	if tr.Oversampling < 1 {
		return nil, tr, fmt.Errorf("samplesort: invalid oversampling %d", tr.Oversampling)
	}
	p := cfg.Workers
	tr.BucketSizes = make([]int, p)
	if len(xs) == 0 {
		return nil, tr, nil
	}

	// Step 1: sample and select splitters.
	var splitters []T
	if rank != nil {
		r := stats.NewRNG(cfg.Seed)
		sample := make([]T, min(tr.Oversampling*p, len(xs)))
		for i := range sample {
			sample[i] = xs[r.Intn(len(xs))]
		}
		slices.Sort(sample)
		splitters = make([]T, p-1)
		for i := range splitters {
			splitters[i] = sample[min(rank(i+1, len(sample)), len(sample)-1)]
		}
		tr.SampleSize = len(sample)
		if len(sample) > 1 {
			tr.ComparisonsSample = float64(len(sample)) * math.Log2(float64(len(sample)))
		}
	}

	// Step 2: count the keys routed to each bucket.
	for _, x := range xs {
		tr.BucketSizes[bucketOf(splitters, x)]++
	}
	if p > 1 {
		tr.ComparisonsRouting = float64(len(xs)) * math.Log2(float64(p))
	}
	for _, n := range tr.BucketSizes {
		tr.MaxBucket = max(tr.MaxBucket, n)
		tr.ComparisonsBuckets += sortWork(n)
	}
	return splitters, tr, nil
}

// bucketOf is the Step 2 routing of one key: the first bucket whose upper
// splitter exceeds x, by binary search.
func bucketOf[T cmp.Ordered](splitters []T, x T) int {
	return sort.Search(len(splitters), func(i int) bool { return x < splitters[i] })
}

// sortWork is n·log₂n, the comparisons of sorting an n-key bucket.
func sortWork(n int) float64 {
	if n < 2 {
		return 0
	}
	return float64(n) * math.Log2(float64(n))
}

// scatterSort is Step 3 on route's counts: their prefix sums give each
// bucket its range of one output array, every key is routed a second time
// straight into its range, and each range is sorted in place, one
// goroutine per bucket unless sequential. Routing twice costs another
// N·log p comparisons, the cheap step, and no memory beyond the output. A
// bucket index kept per key would cost 4 bytes a key (half of a float64
// input again) and a counting loop of its own, apart from Route's.
func scatterSort[T cmp.Ordered](xs, splitters []T, sizes []int, sequential bool) []T {
	out := make([]T, len(xs))
	next := make([]int, len(sizes))
	for b := 1; b < len(sizes); b++ {
		next[b] = next[b-1] + sizes[b-1]
	}
	for _, x := range xs {
		b := bucketOf(splitters, x)
		out[next[b]] = x
		next[b]++
	}
	// next[b] is now the end of bucket b.
	var wg sync.WaitGroup
	lo := 0
	for _, hi := range next {
		bucket := out[lo:hi]
		lo = hi
		if len(bucket) < 2 {
			continue
		}
		if sequential {
			slices.Sort(bucket)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			slices.Sort(bucket)
		}()
	}
	wg.Wait()
	return out
}
