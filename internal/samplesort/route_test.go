package samplesort

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"testing"
	"testing/quick"

	"nlfl/internal/platform"
	"nlfl/internal/stats"
)

// dupFloats returns n keys over about n/4 distinct values, so splitters
// tie and equal keys straddle them.
func dupFloats(r *stats.RNG, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(r.Intn(n/4+1)) / 8
	}
	return xs
}

func dupStrings(r *stats.RNG, n int) []string {
	xs := make([]string, n)
	for i := range xs {
		xs[i] = strconv.Itoa(r.Intn(n/4 + 1))
	}
	return xs
}

// routeMatchesSort reports whether Route's Trace is Sort's and Sort's
// output is the standard library's.
func routeMatchesSort[T cmp.Ordered](xs []T, cfg Config) error {
	got, sortTr, err := Sort(xs, cfg)
	if err != nil {
		return err
	}
	routeTr, err := Route(xs, cfg)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(routeTr, sortTr) {
		return fmt.Errorf("Route trace %+v, Sort trace %+v", routeTr, sortTr)
	}
	want := slices.Clone(xs)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		return fmt.Errorf("Sort output differs from slices.Sort")
	}
	return nil
}

// TestRouteMatchesSort is the differential test of the one routing
// pipeline: Route stops after Step 2 with exactly Sort's Trace, Sort
// still sorts, and the heterogeneous traces are the ones taken before the
// three entry points shared their steps.
func TestRouteMatchesSort(t *testing.T) {
	// cfgFor maps quick's raw draws to n ∈ [0, 10⁴], p ∈ [1, 12] and the
	// default or an explicit oversampling.
	cfgFor := func(nRaw uint16, pRaw, sRaw uint8, seed int64) (int, Config) {
		cfg := Config{Workers: int(pRaw%12) + 1, Seed: seed}
		if sRaw%2 == 1 {
			cfg.Oversampling = int(sRaw)/2 + 1
		}
		return int(nRaw) % 10001, cfg
	}
	t.Run("floats", func(t *testing.T) {
		f := func(nRaw uint16, pRaw, sRaw uint8, seed int64) bool {
			n, cfg := cfgFor(nRaw, pRaw, sRaw, seed)
			if err := routeMatchesSort(dupFloats(stats.NewRNG(seed), n), cfg); err != nil {
				t.Logf("n=%d %+v: %v", n, cfg, err)
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
			t.Error(err)
		}
	})
	t.Run("strings", func(t *testing.T) {
		f := func(nRaw uint16, pRaw, sRaw uint8, seed int64) bool {
			n, cfg := cfgFor(nRaw, pRaw, sRaw, seed)
			if err := routeMatchesSort(dupStrings(stats.NewRNG(seed), n), cfg); err != nil {
				t.Logf("n=%d %+v: %v", n, cfg, err)
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Error(err)
		}
	})
	t.Run("hetero pinned", func(t *testing.T) {
		// fmt.Sprint of each HeteroTrace on 3000 dupFloats keys, taken
		// when the heterogeneous sort still ran its own copy of the steps.
		// The one-worker platform still draws its sample.
		pins := []struct {
			seed                   int64
			speeds                 []float64
			proportional, balanced string
		}{
			{3, []float64{1, 2, 4, 8},
				"{{3000 4 134 536 [219 361 733 1687] 1687 4859.423806085366 6000 29831.185755992134} [1 2 4 8] [1702.678366052657 1533.5018323531342 1744.112915375521 2260.6315079663905]}",
				"{{3000 4 134 536 [288 373 754 1585] 1585 4859.423806085366 6000 29595.511880342594} [1 2 4 8] [2352.938400415386 1593.2754344776017 1801.762304451143 2106.121674145929]}"},
			{11, []float64{1, 3, 9},
				"{{3000 3 134 402 [303 667 2030] 2030 3477.7227798539293 4754.8875021634685 31059.316809939675} [1 3 9] [2497.6817169923042 2085.829716146706 2478.238438278584]}",
				"{{3000 3 134 402 [377 720 1903] 1903 3477.7227798539293 4754.8875021634685 30792.054725719114} [1 3 9] [3226.524608902286 2278.044743119122 2303.4884319399407]}"},
			{11, []float64{2},
				"{{3000 1 134 134 [3000] 3000 946.8559515213415 0 34652.24035614973} [2] [17326.120178074863]}",
				"{{3000 1 134 134 [3000] 3000 946.8559515213415 0 34652.24035614973} [2] [17326.120178074863]}"},
		}
		for _, pin := range pins {
			pl, err := platform.FromSpeeds(pin.speeds)
			if err != nil {
				t.Fatal(err)
			}
			xs := dupFloats(stats.NewRNG(pin.seed), 3000)
			want := slices.Clone(xs)
			slices.Sort(want)
			for _, v := range []struct {
				name string
				sort func([]float64, *platform.Platform, Config) ([]float64, HeteroTrace, error)
				pin  string
			}{
				{"SortHeterogeneous", SortHeterogeneous[float64], pin.proportional},
				{"SortHeterogeneousBalanced", SortHeterogeneousBalanced[float64], pin.balanced},
			} {
				got, ht, err := v.sort(xs, pl, Config{Seed: pin.seed})
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Errorf("%s seed %d speeds %v: output is not sorted", v.name, pin.seed, pin.speeds)
				}
				if s := fmt.Sprint(ht); s != v.pin {
					t.Errorf("%s seed %d speeds %v:\n got %s\nwant %s", v.name, pin.seed, pin.speeds, s, v.pin)
				}
			}
		}
	})
}

// TestRouteAndSortAllocation pins the two memory properties the Section 3
// experiments rely on, on 2^20 float64 keys (8 MiB) and p = 8: Route
// copies no key (it allocates the 3200-key sample and its indices, the
// splitters and the bucket counts), and Sort allocates its one output
// array, not per-bucket slices grown by append (6.1× the input when it
// did).
func TestRouteAndSortAllocation(t *testing.T) {
	const n = 1 << 20
	xs := randomFloats(1, n)
	cfg := Config{Workers: 8, Seed: 3}
	allocated := func(f func() error) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := f(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	routed := allocated(func() error { _, err := Route(xs, cfg); return err })
	sorted := allocated(func() error { _, _, err := Sort(xs, cfg); return err })
	input := uint64(8 * n)
	t.Logf("Route allocated %d B, Sort %d B (%.2f× the %d B input)", routed, sorted, float64(sorted)/float64(input), input)
	if routed >= 64<<10 {
		t.Errorf("Route allocated %d B, want < 64 kB: it must not copy keys", routed)
	}
	if limit := input * 16 / 10; sorted > limit {
		t.Errorf("Sort allocated %d B, want ≤ 1.6× the input (%d B): one output array plus at most a 4-byte index per key", sorted, limit)
	}
}

// routeByIndex is Steps 1 and 2 as route ran them before it took a key
// stream: the sample is drawn straight as xs[index], in draw order. It is
// the reference the streamed route must reproduce.
func routeByIndex[T cmp.Ordered](xs []T, cfg Config, rank func(i, m int) int) ([]T, Trace) {
	p := cfg.Workers
	tr := Trace{N: len(xs), Workers: p, Oversampling: cfg.Oversampling, BucketSizes: make([]int, p)}
	if tr.Oversampling == 0 {
		tr.Oversampling = DefaultOversampling(len(xs))
	}
	if len(xs) == 0 {
		return nil, tr
	}
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
	for _, x := range xs {
		tr.BucketSizes[sort.Search(len(splitters), func(i int) bool { return x < splitters[i] })]++
	}
	if p > 1 {
		tr.ComparisonsRouting = float64(len(xs)) * math.Log2(float64(p))
	}
	for _, n := range tr.BucketSizes {
		tr.MaxBucket = max(tr.MaxBucket, n)
		tr.ComparisonsBuckets += sortWork(n)
	}
	return splitters, tr
}

// keyBits maps float keys to their bit patterns, so that NaN splitters
// compare equal under reflect.DeepEqual (NaN != NaN).
func keyBits(xs []float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	return out
}

// TestRouteStreamMatchesSlice is the property test of the streamed route:
// on keys regenerated from a seed at every walk, in ragged blocks that
// refill one buffer, route gives the Trace and splitters it gives on the
// same keys stored in a slice, and both are the reference's, which draws
// the sample by index. It covers n = 1, n < s·p, n = s·p and 2^16;
// p ∈ {1, 2, 8, 100}; duplicate-heavy keys with and without NaN; even and
// speed-weighted splitter ranks; blocks of 1, 7, s·p−1 and s·p+1 keys and
// of random sizes from 0 to 2·s·p.
func TestRouteStreamMatchesSlice(t *testing.T) {
	// gen draws n keys over about n/4 distinct values; with nan, about one
	// key in eight is NaN. It passes them in blocks of size(r) keys, or
	// fewer at the end, where r is a generator of its own.
	gen := func(seed int64, n int, nan bool, size func(r *stats.RNG) int) func(visit func([]float64)) {
		return func(visit func([]float64)) {
			r, sizes := stats.NewRNG(seed), stats.NewRNG(seed+2)
			var buf []float64
			for left := n; left > 0; {
				buf = buf[:0]
				for range min(size(sizes), left) {
					x := float64(r.Intn(n/4+1)) / 8
					if nan && r.Intn(8) == 0 {
						x = math.NaN()
					}
					buf = append(buf, x)
				}
				visit(buf)
				left -= len(buf)
			}
		}
	}
	const s = 4
	for _, p := range []int{1, 2, 8, 100} {
		blocks := []struct {
			name string
			size func(r *stats.RNG) int
		}{
			{"1", func(*stats.RNG) int { return 1 }},
			{"7", func(*stats.RNG) int { return 7 }},
			{"s·p-1", func(*stats.RNG) int { return max(s*p-1, 1) }},
			{"s·p+1", func(*stats.RNG) int { return s*p + 1 }},
			{"random", func(r *stats.RNG) int { return r.Intn(2*s*p + 1) }},
		}
		speeds := make([]float64, p)
		for i := range speeds {
			speeds[i] = float64(1 + i%5)
		}
		pl, err := platform.FromSpeeds(speeds)
		if err != nil {
			t.Fatal(err)
		}
		ranks := []struct {
			name string
			rank func(i, m int) int
		}{{"even", evenRank(p)}, {"hetero", shareRank(pl.NormalizedSpeeds())}}
		sizes := []struct {
			name string
			n, s int
		}{{"n=1", 1, s}, {"n<s·p", s*p - 1, s}, {"n=s·p", s * p, s}, {"n=2^16", 1 << 16, 0}}
		for _, size := range sizes {
			for _, nan := range []bool{false, true} {
				for _, rk := range ranks {
					for _, bl := range blocks {
						name := fmt.Sprintf("p=%d/%s/nan=%v/%s/blocks=%s", p, size.name, nan, rk.name, bl.name)
						seed := int64(p*1000 + size.n)
						keys := gen(seed, size.n, nan, bl.size)
						var xs []float64
						keys(func(block []float64) { xs = append(xs, block...) })
						cfg := Config{Workers: p, Oversampling: size.s, Seed: seed + 1}

						streamed, streamedTr, err := route(size.n, keys, cfg, rk.rank)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						sliced, slicedTr, err := route(len(xs), sliceKeys(xs), cfg, rk.rank)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						want, wantTr := routeByIndex(xs, cfg, rk.rank)
						if !reflect.DeepEqual(streamedTr, slicedTr) || !reflect.DeepEqual(keyBits(streamed), keyBits(sliced)) {
							t.Errorf("%s: streamed %+v %v, sliced %+v %v", name, streamedTr, streamed, slicedTr, sliced)
						}
						if !reflect.DeepEqual(slicedTr, wantTr) || !reflect.DeepEqual(keyBits(sliced), keyBits(want)) {
							t.Errorf("%s: route %+v %v, by index %+v %v", name, slicedTr, sliced, wantTr, want)
						}
					}
				}
			}
		}
	}
}

// TestRouteStreamRejectsMiscountedStream checks that a stream which
// yields other than n keys is an error, not a wrong Trace: one block of
// 100 keys, and streams of several blocks one key short of n and one key
// past it.
func TestRouteStreamRejectsMiscountedStream(t *testing.T) {
	xs := randomFloats(2, 101)
	blocks := func(sizes ...int) func(visit func([]float64)) {
		return func(visit func([]float64)) {
			at := 0
			for _, n := range sizes {
				visit(xs[at : at+n])
				at += n
			}
		}
	}
	for _, c := range []struct {
		name string
		n    int
		keys func(visit func([]float64))
	}{
		{"100 keys in one block", 99, sliceKeys(xs[:100])},
		{"100 keys in one block", 101, sliceKeys(xs[:100])},
		{"100 keys in one block", -1, sliceKeys(xs[:100])},
		{"99 keys in blocks of 40, 0, 59", 100, blocks(40, 0, 59)},
		{"101 keys in blocks of 1, 60, 40", 100, blocks(1, 60, 40)},
	} {
		if _, err := RouteStream(c.n, c.keys, Config{Workers: 4, Seed: 1}); err == nil {
			t.Errorf("RouteStream(n=%d) of %s: no error", c.n, c.name)
		}
		// One worker draws no sample; the count still checks the stream.
		if _, err := RouteStream(c.n, c.keys, Config{Workers: 1}); err == nil {
			t.Errorf("RouteStream(n=%d, p=1) of %s: no error", c.n, c.name)
		}
	}
}

// TestBucketOfMatchesSearch checks the branch-free bucketOf, the routing
// of Step 2's count loop and of Step 3's scatter, against the binary
// search it replaces, with every splitter count from 0 to 129, on random sorted splitters with duplicates
// (NaN sorts first, -0 and +0 tie) and on keys that are NaN, ±0, ±Inf,
// equal to a splitter, or between and beyond them.
func TestBucketOfMatchesSearch(t *testing.T) {
	r := stats.NewRNG(9)
	special := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(-1), math.Inf(1), -1, 0.5, 2}
	for trial := 0; trial < 2000; trial++ {
		splitters := make([]float64, trial%130)
		for i := range splitters {
			if r.Intn(4) == 0 {
				splitters[i] = special[r.Intn(len(special))]
			} else {
				splitters[i] = float64(r.Intn(20)) / 4
			}
		}
		slices.Sort(splitters)
		keys := slices.Clone(special)
		for _, s := range splitters {
			keys = append(keys, s, math.Nextafter(s, math.Inf(-1)), math.Nextafter(s, math.Inf(1)))
		}
		for _, x := range keys {
			want := sort.Search(len(splitters), func(i int) bool { return x < splitters[i] })
			if got := bucketOf(splitters, x); got != want {
				t.Fatalf("bucketOf(%v, %v) = %d, sort.Search gives %d", splitters, x, got, want)
			}
		}
	}
	// Strings take the same code on another comparison.
	words := []string{"", "a", "a", "b", "ba", "c", "c", "c"}
	for _, x := range []string{"", "0", "a", "aa", "b", "bb", "c", "d"} {
		for n := range len(words) + 1 {
			s := words[:n]
			want := sort.Search(len(s), func(i int) bool { return x < s[i] })
			if got := bucketOf(s, x); got != want {
				t.Fatalf("bucketOf(%q, %q) = %d, sort.Search gives %d", s, x, got, want)
			}
		}
	}
}

// BenchmarkRoute times Steps 1 and 2 on 2^20 uniform float64 keys (8 MiB)
// for p = 8, the E3 sweep's width, and p = 100, the heterogeneous sorts'
// platform size.
func BenchmarkRoute(b *testing.B) {
	xs := randomFloats(1, 1<<20)
	for _, p := range []int{8, 100} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			b.SetBytes(int64(8 * len(xs)))
			for i := 0; i < b.N; i++ {
				tr, err := Route(xs, Config{Workers: p, Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				routed = tr
			}
		})
	}
}

// routed keeps BenchmarkRoute's result live.
var routed Trace
