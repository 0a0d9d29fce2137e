package affinity

import (
	"math"
	"testing"
	"testing/quick"

	"nlfl/internal/outer"
	"nlfl/internal/platform"
	"nlfl/internal/stats"
)

func plat(t *testing.T, speeds ...float64) *platform.Platform {
	t.Helper()
	pl, err := platform.FromSpeeds(speeds)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestRunValidation(t *testing.T) {
	pl := plat(t, 1, 2)
	if _, err := Run(pl, 100, 0, PolicyCache); err == nil {
		t.Error("g=0 should fail")
	}
	if _, err := Run(pl, -1, 4, PolicyCache); err == nil {
		t.Error("negative n should fail")
	}
	if _, err := Run(pl, 100, 4, Policy(99)); err == nil {
		t.Error("unknown policy should fail")
	}
	// Infinite n, or a finite n whose block area (n/g)² overflows, has no
	// finite volume or imbalance to report.
	for _, n := range []float64{math.Inf(1), 1e308} {
		for _, pol := range []Policy{PolicyNoCache, PolicyCache, PolicyAffinity} {
			if _, err := Run(pl, n, 4, pol); err == nil {
				t.Errorf("%v with n=%v should fail", pol, n)
			}
		}
		if _, err := RunBounded(pl, n, 4, 2); err == nil {
			t.Errorf("bounded with n=%v should fail", n)
		}
	}
}

func TestAllBlocksAssignedOnce(t *testing.T) {
	pl := plat(t, 1, 3, 5)
	for _, pol := range []Policy{PolicyNoCache, PolicyCache, PolicyAffinity} {
		res, err := Run(pl, 120, 12, pol)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, c := range res.BlocksPerWorker {
			total += c
		}
		if total != 144 {
			t.Errorf("%v: %d blocks assigned, want 144", pol, total)
		}
	}
}

func TestNoCacheMatchesCommhomAccounting(t *testing.T) {
	// Every block ships 2N/g: volume = g²·2N/g = 2Ng, independent of the
	// assignment — the Comm_hom/k model.
	pl := plat(t, 1, 2, 4)
	const n, g = 300.0, 9
	res, err := Run(pl, n, g, PolicyNoCache)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Volume-2*n*g) > 1e-9 {
		t.Errorf("no-cache volume = %v, want %v", res.Volume, 2*n*float64(g))
	}
}

func TestPolicyOrderingOnHeterogeneousPlatform(t *testing.T) {
	r := stats.NewRNG(1)
	pl, err := platform.Generate(10, stats.Uniform{Lo: 1, Hi: 100}, r)
	if err != nil {
		t.Fatal(err)
	}
	const n, g = 1000.0, 30
	rs, err := Compare(pl, n, g)
	if err != nil {
		t.Fatal(err)
	}
	noCache, cache, aff := rs[0], rs[1], rs[2]
	if !(aff.Volume <= cache.Volume && cache.Volume <= noCache.Volume) {
		t.Fatalf("expected affinity ≤ cache ≤ no-cache, got %v ≤? %v ≤? %v",
			aff.Volume, cache.Volume, noCache.Volume)
	}
	// The paper's proposal must recover a large share of the gap to the
	// heterogeneity-aware layout.
	het, err := outer.Commhet(pl, n)
	if err != nil {
		t.Fatal(err)
	}
	if aff.Volume > 3*het.Volume {
		t.Errorf("affinity volume %v still far from Comm_het %v", aff.Volume, het.Volume)
	}
	if noCache.Volume < 5*het.Volume {
		t.Errorf("test not discriminating: no-cache %v too close to het %v", noCache.Volume, het.Volume)
	}
}

func TestAffinityKeepsLoadBalance(t *testing.T) {
	// Affinity must not wreck the demand-driven load balance: with many
	// blocks the imbalance stays small.
	pl := plat(t, 1, 2, 3, 4)
	res, err := Run(pl, 400, 40, PolicyAffinity)
	if err != nil {
		t.Fatal(err)
	}
	if res.Imbalance > 0.05 {
		t.Errorf("affinity imbalance = %v, want ≤ 5%%", res.Imbalance)
	}
	// Counts must track speeds.
	for w, c := range res.BlocksPerWorker {
		share := float64(c) / 1600
		want := pl.NormalizedSpeeds()[w]
		if math.Abs(share-want) > 0.05 {
			t.Errorf("worker %d got share %v, want ≈ %v", w, share, want)
		}
	}
}

func TestHomogeneousPoliciesEquivalentVolumeScale(t *testing.T) {
	// On a homogeneous platform with g = p (one block column per worker-
	// ish) affinity converges to contiguous stripes: volume well below
	// no-cache.
	pl := plat(t, 1, 1, 1, 1)
	res, err := Compare(pl, 100, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res[2].Volume >= res[0].Volume {
		t.Errorf("affinity %v should beat no-cache %v even homogeneous", res[2].Volume, res[0].Volume)
	}
}

func TestPolicyStrings(t *testing.T) {
	if PolicyNoCache.String() != "no-cache" || PolicyAffinity.String() != "affinity" {
		t.Error("names changed")
	}
	if Policy(42).String() == "" {
		t.Error("unknown policy should render")
	}
	pl := plat(t, 1)
	r, err := Run(pl, 10, 2, PolicyCache)
	if err != nil || r.String() == "" {
		t.Error("result rendering")
	}
}

func TestSingleWorkerCachesEverythingOnce(t *testing.T) {
	// One worker with caching pays each chunk exactly once: volume = 2N.
	pl := plat(t, 5)
	const n, g = 60.0, 6
	for _, pol := range []Policy{PolicyCache, PolicyAffinity} {
		res, err := Run(pl, n, g, pol)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Volume-2*n) > 1e-9 {
			t.Errorf("%v: single-worker volume = %v, want 2N = %v", pol, res.Volume, 2*n)
		}
	}
}

// Property: volumes are ordered affinity ≤ cache ≤ no-cache and bounded
// below by the chunk-coverage minimum (every chunk ships at least once:
// 2N), for random platforms and grids.
func TestVolumeOrderingProperty(t *testing.T) {
	f := func(seed int64, np, ng uint8) bool {
		p := int(np%6) + 1
		g := int(ng%12) + 1
		r := stats.NewRNG(seed)
		pl, err := platform.Generate(p, stats.Uniform{Lo: 1, Hi: 10}, r)
		if err != nil {
			return false
		}
		const n = 100.0
		rs, err := Compare(pl, n, g)
		if err != nil {
			return false
		}
		return rs[2].Volume <= rs[1].Volume+1e-9 &&
			rs[1].Volume <= rs[0].Volume+1e-9 &&
			rs[2].Volume >= 2*n-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
