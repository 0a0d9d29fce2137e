package outer

import (
	"math"
	"slices"
	"testing"

	"nlfl/internal/platform"
	"nlfl/internal/stats"
)

// FuzzDemandCounts holds demandCounts to the claim order it is defined by,
// bruteDemandCounts: the earliest b claims, ties to the lowest index. The
// first byte picks the speeds: equal, three classes {1, 2, 4}, or spread
// over nine decades; each later byte makes one worker.
func FuzzDemandCounts(f *testing.F) {
	f.Add([]byte{0, 7, 7, 7}, uint16(10))
	f.Add([]byte{1, 0, 1, 2, 0, 1, 2, 2}, uint16(1001))
	f.Add([]byte{2, 0, 255, 128, 1}, uint16(20000))
	f.Add([]byte{2, 3}, uint16(7))
	f.Fuzz(func(t *testing.T, raw []byte, nb uint16) {
		if len(raw) < 2 || len(raw) > 65 {
			t.Skip()
		}
		b := int(nb) % 20001
		speeds := make([]float64, len(raw)-1)
		for i, c := range raw[1:] {
			switch raw[0] % 3 {
			case 0:
				speeds[i] = 1 + float64(raw[1])/8
			case 1:
				speeds[i] = float64(int(1) << (c % 3))
			default:
				speeds[i] = math.Pow(10, 9*float64(c)/255)
			}
		}
		got, want := demandCounts(nil, speeds, b), bruteDemandCounts(speeds, b)
		if !slices.Equal(got, want) {
			t.Fatalf("b=%d speeds %v: counts %v, brute force %v", b, speeds, got, want)
		}
	})
}

// figure4Platforms calls visit with Figure 4's platforms for the given
// profile: p = 10, 20, …, 100, 100 platforms each, every platform drawn
// from its own generator split from seed 42, as Fig4 draws them.
func figure4Platforms(t *testing.T, profile platform.SpeedProfile, visit func(pl *platform.Platform)) {
	t.Helper()
	root := stats.NewRNG(42)
	for p := 10; p <= 100; p += 10 {
		for range 100 {
			pl, err := platform.Generate(p, profile.Distribution(0), root.Split())
			if err != nil {
				t.Fatal(err)
			}
			visit(pl)
		}
	}
}

// Starting the bisection from the bracket [(b−p)/S, b/S] takes at most 8
// claim counts per demandCounts call, on average, over every call
// Comm_hom/k makes on Figure 4's 1 000 log-normal and 1 000 uniform
// platforms. Doubling from 1 and bisecting from 0 took 21.4 and 17.1.
func TestDemandCountsEvaluations(t *testing.T) {
	for _, profile := range []platform.SpeedProfile{platform.ProfileLogNormal, platform.ProfileUniform} {
		calls, counted := 0, 0
		figure4Platforms(t, profile, func(pl *platform.Platform) {
			res, err := CommhomK(pl, 1000, 0.01, 0)
			if err != nil {
				t.Fatal(err)
			}
			speeds, x1 := pl.Speeds(), pl.MinSpeed()/pl.TotalSpeed()
			for k := 1; k <= res.K; k++ {
				_, n := claimHorizon(speeds, blockCount(k, x1))
				calls++
				counted += n
			}
		})
		mean := float64(counted) / float64(calls)
		t.Logf("%v: %d calls, %.2f claim counts per call", profile, calls, mean)
		if mean > 8 {
			t.Errorf("%v: %.2f claim counts per demandCounts call, want ≤ 8", profile, mean)
		}
	}
}

// One Figure 4 trial at p = 100 on a log-normal platform (the platform
// and the three strategies) allocates at most 26 objects: no strategy
// copies the speeds more than once, and Comm_hom/k reuses one counts
// slice across k.
func TestFigure4TrialAllocs(t *testing.T) {
	root := stats.NewRNG(42)
	rngs := make([]*stats.RNG, 101) // AllocsPerRun runs once more than asked
	for i := range rngs {
		rngs[i] = root.Split()
	}
	var dist stats.Distribution = stats.LogNormal{Mu: 0, Sigma: 1}
	next := 0
	allocs := testing.AllocsPerRun(100, func() {
		pl, err := platform.Generate(100, dist, rngs[next])
		next++
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Commhet(pl, 1000); err != nil {
			t.Fatal(err)
		}
		if _, err := CommhomK(pl, 1000, 0.01, 0); err != nil {
			t.Fatal(err)
		}
		Commhom(pl, 1000)
	})
	t.Logf("%.1f allocations per trial", allocs)
	if allocs > 26 {
		t.Errorf("a Figure 4 trial allocates %.1f objects, want ≤ 26", allocs)
	}
}
