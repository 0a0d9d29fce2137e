package affinity

import (
	"math"
	"testing"

	"nlfl/internal/platform"
	"nlfl/internal/stats"
)

func TestRunBoundedExtremes(t *testing.T) {
	r := stats.NewRNG(4)
	pl, err := platform.Generate(6, stats.Uniform{Lo: 1, Hi: 20}, r)
	if err != nil {
		t.Fatal(err)
	}
	const n, g = 400.0, 16
	// capacity 0 == no-cache accounting.
	zero, err := RunBounded(pl, n, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	noCache, err := Run(pl, n, g, PolicyNoCache)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(zero.Volume-noCache.Volume) > 1e-9 {
		t.Errorf("capacity 0 volume %v != no-cache %v", zero.Volume, noCache.Volume)
	}
	// capacity ≥ 2g == unlimited affinity.
	full, err := RunBounded(pl, n, g, 2*g)
	if err != nil {
		t.Fatal(err)
	}
	unlimited, err := Run(pl, n, g, PolicyAffinity)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(full.Volume-unlimited.Volume) > 1e-9 {
		t.Errorf("capacity 2g volume %v != unlimited affinity %v", full.Volume, unlimited.Volume)
	}
}

func TestRunBoundedMonotoneInCapacity(t *testing.T) {
	r := stats.NewRNG(5)
	pl, err := platform.Generate(5, stats.Uniform{Lo: 1, Hi: 10}, r)
	if err != nil {
		t.Fatal(err)
	}
	const n, g = 300.0, 12
	prev := math.Inf(1)
	for _, capVal := range []int{0, 2, 4, 8, 24} {
		res, err := RunBounded(pl, n, g, capVal)
		if err != nil {
			t.Fatal(err)
		}
		// More memory can only reduce the volume (weakly; LRU is not
		// strictly monotone in adversarial cases, so allow 5% slack).
		if res.Volume > prev*1.05 {
			t.Errorf("capacity %d volume %v far above smaller-capacity %v", capVal, res.Volume, prev)
		}
		if res.Volume < prev {
			prev = res.Volume
		}
	}
}

func TestRunBoundedValidation(t *testing.T) {
	pl, _ := platform.Homogeneous(2, 1, 1)
	if _, err := RunBounded(pl, 100, 0, 4); err == nil {
		t.Error("g=0 should fail")
	}
	if _, err := RunBounded(pl, 100, 4, -1); err == nil {
		t.Error("negative capacity should fail")
	}
	if _, err := RunBounded(pl, -1, 4, 4); err == nil {
		t.Error("negative n should fail")
	}
}

func TestLRUCacheEviction(t *testing.T) {
	c := newLRU(4, 2)
	c.touch(1)
	c.touch(2)
	c.touch(1) // refresh 1; 2 is now oldest
	c.touch(3) // evicts 2
	if got := [3]int{c.missing(1), c.missing(2), c.missing(3)}; got != [3]int{0, 1, 0} {
		t.Errorf("LRU missing(1..3) = %v, want [0 1 0]", got)
	}
}
