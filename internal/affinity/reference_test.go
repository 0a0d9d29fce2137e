package affinity

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"nlfl/internal/platform"
	"nlfl/internal/stats"
)

// refRun is run as it was before the least-missing picker skipped
// exhausted rows: it scans every row whose a-chunk could beat the best
// and steps over each taken block of it. run must reproduce it exactly.
func refRun(pl *platform.Platform, n float64, g int, policy Policy, leastMissing bool, capacity int) (Result, error) {
	if g <= 0 {
		return Result{}, errors.New("affinity: grid must be positive")
	}
	if n <= 0 || math.IsNaN(n) || math.IsInf(n, 0) {
		return Result{}, fmt.Errorf("affinity: invalid size %v", n)
	}
	chunk := n / float64(g)
	blockWork := chunk * chunk
	if math.IsInf(blockWork, 0) {
		return Result{}, fmt.Errorf("affinity: block area (%v/%d)² overflows", n, g)
	}
	p := pl.P()
	taken := make([]bool, g*g)
	caches := make([]lru, p)
	for w := range caches {
		caches[w] = newLRU(2*g, capacity)
	}
	free := make([]float64, p)
	counts := make([]int, p)
	volume := 0.0
	scan := 0

	for remaining := g * g; remaining > 0; remaining-- {
		w := 0
		for cand := 1; cand < p; cand++ {
			if free[cand] < free[w] {
				w = cand
			}
		}
		c := &caches[w]
		block, miss := -1, 3
		if leastMissing {
			for i := 0; i < g && miss > 0; i++ {
				ma := c.missing(i)
				if ma >= miss {
					continue
				}
				for j, tk := range taken[i*g : (i+1)*g] {
					if tk {
						continue
					}
					if m := ma + c.missing(g+j); m < miss {
						block, miss = i*g+j, m
						if m == 0 {
							break
						}
					}
				}
			}
		} else {
			for taken[scan] {
				scan++
			}
			block = scan
			miss = c.missing(block/g) + c.missing(g+block%g)
		}
		taken[block] = true
		volume += float64(miss) * chunk
		c.touch(block / g)
		c.touch(g + block%g)
		free[w] += blockWork / pl.Worker(w).Speed
		counts[w]++
	}

	lb := 0.0
	for _, x := range pl.NormalizedSpeeds() {
		lb += math.Sqrt(x)
	}
	lb *= 2 * n
	return Result{
		Policy:          policy,
		Grid:            g,
		Volume:          volume,
		LowerBound:      lb,
		Ratio:           volume / lb,
		Imbalance:       imbalance(free),
		BlocksPerWorker: counts,
	}, nil
}

// matchesReference runs every policy of Run and RunBounded at the given
// capacities on one input and compares each result with refRun's.
func matchesReference(pl *platform.Platform, n float64, g int, capacities []int) error {
	for _, c := range []struct {
		policy       Policy
		leastMissing bool
		capacity     int
	}{
		{PolicyNoCache, false, 0},
		{PolicyCache, false, 2 * g},
		{PolicyAffinity, true, 2 * g},
	} {
		got, err := Run(pl, n, g, c.policy)
		want, werr := refRun(pl, n, g, c.policy, c.leastMissing, c.capacity)
		if err != nil || werr != nil {
			return fmt.Errorf("g=%d %v: errors %v / %v", g, c.policy, err, werr)
		}
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("g=%d %v on %v:\n got %+v\nwant %+v", g, c.policy, pl, got, want)
		}
	}
	for _, capacity := range capacities {
		got, err := RunBounded(pl, n, g, capacity)
		want, werr := refRun(pl, n, g, PolicyAffinity, true, capacity)
		if err != nil || werr != nil {
			return fmt.Errorf("g=%d capacity %d: errors %v / %v", g, capacity, err, werr)
		}
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("g=%d capacity %d on %v:\n got %+v\nwant %+v", g, capacity, pl, got, want)
		}
	}
	return nil
}

// TestRunMatchesReferencePicker compares Run (all three policies) and
// RunBounded (capacities 0, 1, g/2, g, 2g) with refRun on random
// platforms, a third of them homogeneous so that free times and block
// choices tie.
func TestRunMatchesReferencePicker(t *testing.T) {
	r := stats.NewRNG(17)
	for _, g := range []int{1, 3, 10, 20, 40} {
		for k := range 6 {
			p := 1 + r.Intn(12)
			var pl *platform.Platform
			var err error
			if k%3 == 0 {
				pl, err = platform.Homogeneous(p, 1, 1)
			} else {
				pl, err = platform.Generate(p, stats.Uniform{Lo: 1, Hi: 10}, r)
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := matchesReference(pl, 1000, g, []int{0, 1, g / 2, g, 2 * g}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// FuzzRunMatchesReferencePicker lets the fuzzer's bytes choose g (first
// byte), the bounded capacity (second) and up to 16 speeds in 1..8 (the
// rest), so equal speeds and ties are common.
func FuzzRunMatchesReferencePicker(f *testing.F) {
	f.Add([]byte{9, 5, 1, 1, 1})
	f.Add([]byte{19, 40, 0, 3, 7, 2, 2})
	f.Add([]byte{0, 0, 4})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 3 {
			return
		}
		g := 1 + int(raw[0])%32
		capacity := int(raw[1]) % (2*g + 2)
		raw = raw[2:]
		speeds := make([]float64, min(len(raw), 16))
		for i := range speeds {
			speeds[i] = float64(1 + raw[i]%8)
		}
		pl, err := platform.FromSpeeds(speeds)
		if err != nil {
			t.Fatal(err)
		}
		if err := matchesReference(pl, 1000, g, []int{capacity}); err != nil {
			t.Fatal(err)
		}
	})
}
