package samplesort

import (
	"cmp"
	"fmt"
	"reflect"
	"runtime"
	"slices"
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
// copies no key (it allocates the 3200-key sample, the splitters and the
// bucket counts), and Sort allocates its one output array, not per-
// bucket slices grown by append (6.1× the input when it did).
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
