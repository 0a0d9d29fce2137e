package samplesort

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
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
// allocates only the s·p sample, its indices and the splitters. Its Trace
// equals Sort's for the same xs and cfg, so callers that read bucket sizes
// only (the Section 3 balance results) route instead of sorting.
func Route[T cmp.Ordered](xs []T, cfg Config) (Trace, error) {
	return RouteStream(len(xs), sliceKeys(xs), cfg)
}

// RouteStream is Route on n keys that are never stored as a whole: keys
// must pass the same n keys in the same order to visit on every call, in
// blocks of any sizes, and it is called twice, once to pick the sample
// and once to count the buckets. visit does not keep a block, so a caller
// may refill one buffer for every block. The Trace is Route's on a slice
// of those keys, so a caller that can regenerate its keys (from a seed,
// say) reads bucket sizes in O(s·p) memory plus its buffer.
func RouteStream[T cmp.Ordered](n int, keys func(visit func([]T)), cfg Config) (Trace, error) {
	_, tr, err := route(n, keys, cfg, evenRank(cfg.Workers))
	return tr, err
}

// Sort sample-sorts xs into a new slice using cfg, returning the sorted
// keys and the phase trace. The input is not modified.
func Sort[T cmp.Ordered](xs []T, cfg Config) ([]T, Trace, error) {
	splitters, tr, err := route(len(xs), sliceKeys(xs), cfg, evenRank(cfg.Workers))
	if err != nil || len(xs) == 0 {
		return nil, tr, err
	}
	return scatterSort(xs, splitters, tr.BucketSizes, cfg.Sequential), tr, nil
}

// sliceKeys is the key stream of a slice, for route: one block.
func sliceKeys[T any](xs []T) func(visit func([]T)) {
	return func(visit func([]T)) { visit(xs) }
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

// route is Steps 1 and 2 for every entry point, on n keys that keys
// passes in the same order, in blocks, on every call. Step 1 draws
// min(s·p, N) random key indices, sorts them and picks their keys in one
// walk, taking from each block the indices that fall in it: the sample is
// sorted next, so only its multiset matters, and it is the one a direct
// draw of xs[index] would give. It keeps the keys of ranks rank(1, m), …,
// rank(p-1, m) of the sorted m-key sample as splitters (clamped to the
// sample; non-decreasing by construction). Step 2 counts the keys of each
// bucket in a second walk, one loop over each block. The returned Trace
// is complete.
func route[T cmp.Ordered](n int, keys func(visit func([]T)), cfg Config, rank func(i, m int) int) ([]T, Trace, error) {
	tr := Trace{N: n, Workers: cfg.Workers, Oversampling: cfg.Oversampling}
	if cfg.Workers < 1 {
		return nil, tr, errors.New("samplesort: need at least one worker")
	}
	if n < 0 {
		return nil, tr, fmt.Errorf("samplesort: invalid key count %d", n)
	}
	if tr.Oversampling == 0 {
		tr.Oversampling = DefaultOversampling(n)
	}
	if tr.Oversampling < 1 {
		return nil, tr, fmt.Errorf("samplesort: invalid oversampling %d", tr.Oversampling)
	}
	p := cfg.Workers
	tr.BucketSizes = make([]int, p)
	if n == 0 {
		return nil, tr, nil
	}

	// Step 1: sample and select splitters.
	var splitters []T
	if rank != nil {
		r := stats.NewRNG(cfg.Seed)
		at := make([]int, min(tr.Oversampling*p, n))
		for i := range at {
			at[i] = r.Intn(n)
		}
		slices.Sort(at)
		sample := make([]T, len(at))
		picked, i := 0, 0
		keys(func(block []T) {
			end := i + len(block)
			for picked < len(at) && at[picked] < end {
				sample[picked] = block[at[picked]-i]
				picked++
			}
			i = end
		})
		if i != n {
			return nil, tr, fmt.Errorf("samplesort: key stream yielded %d keys, want %d", i, n)
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
	sizes := tr.BucketSizes
	keys(func(block []T) {
		for _, x := range block {
			sizes[bucketOf(splitters, x)]++
		}
	})
	counted := 0
	for _, c := range sizes {
		counted += c
		tr.MaxBucket = max(tr.MaxBucket, c)
		tr.ComparisonsBuckets += sortWork(c)
	}
	if counted != n {
		return nil, tr, fmt.Errorf("samplesort: key stream yielded %d keys, want %d", counted, n)
	}
	if p > 1 {
		tr.ComparisonsRouting = float64(n) * math.Log2(float64(p))
	}
	return splitters, tr, nil
}

// bucketOf is the Step 2 routing of one key: the first bucket whose upper
// splitter exceeds x, which is what
// sort.Search(len(splitters), func(i int) bool { return x < splitters[i] })
// returns. Splitters are sorted, so !(x < splitter) holds on a prefix of
// them (NaN splitters sort first and x < NaN is false) and the answer is
// that prefix's length, one of the m = p bucket indices. The candidates
// [base, base+m) start as all of them; each step tests the splitter
// below candidate base+⌊m/2⌋ and either moves base past the lower half
// or keeps it, and either way leaves ⌈m/2⌉ candidates that still hold
// the answer. So it takes a fixed ⌈log₂ p⌉ steps, and each adds the
// half masked by the comparison's 0 or 1: no branch depends on the key,
// where on random keys one would mispredict half the time. (A plain if
// would stay a branch: the compiler makes no conditional move whose
// result feeds a load address.) It is small enough to inline, so the
// Step 2 loop makes no call per key.
func bucketOf[T cmp.Ordered](splitters []T, x T) int {
	base := 0
	for m := len(splitters) + 1; m > 1; m -= m >> 1 {
		half := m >> 1
		base += half & -notBelow(x, splitters[base+half-1])
	}
	return base
}

// notBelow is 1 if !(x < s) and 0 otherwise. The compiler sets it from the
// comparison's flags, so bucketOf moves its base without a branch.
func notBelow[T cmp.Ordered](x, s T) int {
	b := 0
	if !(x < s) {
		b = 1
	}
	return b
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
