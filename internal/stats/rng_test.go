package stats

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// generator is the method set *RNG shares with *rand.Rand.
type generator interface {
	Float64() float64
	Intn(n int) int
	Int63() int64
	NormFloat64() float64
	ExpFloat64() float64
	Perm(n int) []int
	Shuffle(n int, swap func(i, j int))
}

// drawAll walks one fixed sequence through every method of g and records
// what each returned, so two generators can be compared draw for draw.
func drawAll(g generator) []float64 {
	var out []float64
	for i := 0; i < 50; i++ {
		out = append(out, g.Float64(), float64(g.Intn(1+i)), float64(g.Int63()), g.NormFloat64(), g.ExpFloat64())
		for _, v := range g.Perm(1 + i%7) {
			out = append(out, float64(v))
		}
		xs := []float64{0, 1, 2, 3, 4, 5}
		g.Shuffle(len(xs), func(a, b int) { xs[a], xs[b] = xs[b], xs[a] })
		out = append(out, xs...)
	}
	return out
}

// The stream must be exactly the one rand.New(rand.NewSource(seed))
// gives, before and after the state is built, for NewRNG and for Split.
func TestRNGStreamEqualsMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, 7, 42, -3, 1 << 62} {
		if got, want := drawAll(NewRNG(seed)), drawAll(rand.New(rand.NewSource(seed))); !slices.Equal(got, want) {
			t.Fatalf("seed %d: NewRNG stream differs from math/rand", seed)
		}
		root, ref := NewRNG(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < 5; i++ {
			child, refChild := root.Split(), rand.New(rand.NewSource(ref.Int63()))
			if i%2 == 1 {
				// Interleave a parent draw between splits.
				if root.Float64() != ref.Float64() {
					t.Fatalf("seed %d: parent draw %d differs after Split", seed, i)
				}
			}
			if got, want := drawAll(child), drawAll(refChild); !slices.Equal(got, want) {
				t.Fatalf("seed %d: Split child %d stream differs from math/rand", seed, i)
			}
		}
	}
}

// A split generator that never draws costs one allocation: the RNG.
func TestRNGSplitAllocatesOnce(t *testing.T) {
	root := NewRNG(42)
	root.Int63() // seed the root outside the measurement
	var sink *RNG
	if allocs := testing.AllocsPerRun(100, func() { sink = root.Split() }); allocs != 1 {
		t.Fatalf("Split allocates %v times, want 1", allocs)
	}
	_ = sink
}

// sourceSeeds are the seeds TestSourceMatchesMathRand compares: the
// edges of Seed's normalisation (0 and every multiple of 2³¹−1 map to
// 89482311; negative seeds wrap), the int64 extremes, and n random
// seeds of both signs.
func sourceSeeds(n int) []int64 {
	seeds := []int64{0, 1, -1, 89482311, -89482311, int32max, -int32max, 2 * int32max, -2 * int32max,
		int32max - 1, int32max + 1, 1 << 62, -1 << 62, math.MinInt64, math.MaxInt64,
		math.MinInt64 / int32max * int32max, math.MaxInt64 / int32max * int32max}
	r := rand.New(rand.NewSource(2024))
	for range n {
		s := r.Int63()
		if r.Intn(2) == 0 {
			s = -s
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// matchMathRand draws n values from NewRNG(seed) and from
// rand.New(rand.NewSource(seed)), cycling through every method of RNG, and
// reports the first draw that differs.
func matchMathRand(seed int64, n int) error {
	got, want := NewRNG(seed), rand.New(rand.NewSource(seed))
	xs, ys := make([]int, 9), make([]int, 9)
	for k := range n {
		var a, b float64
		switch k % 8 {
		case 0, 4:
			a, b = got.Float64(), want.Float64()
		case 1, 5:
			// Compared as integers: a float64 would drop the low bits.
			if a, b := got.Int63(), want.Int63(); a != b {
				return fmt.Errorf("seed %d: draw %d (Int63) is %d, math/rand gives %d", seed, k, a, b)
			}
			continue
		case 2:
			m := 1 + k%1000
			if k%3 == 0 {
				m = 1<<40 + k // past the 31-bit fast path of Intn
			}
			a, b = float64(got.Intn(m)), float64(want.Intn(m))
		case 3:
			a, b = got.NormFloat64(), want.NormFloat64()
		case 6:
			a, b = got.ExpFloat64(), want.ExpFloat64()
		case 7:
			if k%16 == 7 {
				if !slices.Equal(got.Perm(1+k%9), want.Perm(1+k%9)) {
					return fmt.Errorf("seed %d: Perm at draw %d differs", seed, k)
				}
				continue
			}
			for i := range xs {
				xs[i], ys[i] = i, i
			}
			got.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
			want.Shuffle(len(ys), func(i, j int) { ys[i], ys[j] = ys[j], ys[i] })
			if !slices.Equal(xs, ys) {
				return fmt.Errorf("seed %d: Shuffle at draw %d differs", seed, k)
			}
			continue
		}
		if a != b {
			return fmt.Errorf("seed %d: draw %d (method %d) is %v, math/rand gives %v", seed, k, k%8, a, b)
		}
	}
	return nil
}

// The jump-ahead seeding and the direct draws give math/rand's stream
// exactly: every method, 2 000 draws per seed (several passes over the
// 607-word state), on the normalisation's edge seeds and 3 000 random
// ones.
func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range sourceSeeds(3000) {
		if err := matchMathRand(seed, 2000); err != nil {
			t.Fatal(err)
		}
	}
}

func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range sourceSeeds(0) {
		f.Add(seed, uint16(700))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		if err := matchMathRand(seed, int(n%4096)); err != nil {
			t.Fatal(err)
		}
	})
}

// A generator's first rngTap draws allocate nothing beyond the generator
// itself, through the direct methods and through rand.Rand; the next
// draw builds the state in one allocation.
func TestRNGStateAllocatesOnce(t *testing.T) {
	for _, c := range []struct {
		draws, norms, allocs int
	}{{rngTap, 0, 1}, {0, 100, 1}, {rngTap + 1, 0, 2}, {3 * rngLen, 100, 2}} {
		seed := int64(0)
		if allocs := testing.AllocsPerRun(50, func() {
			seed++
			r := NewRNG(seed)
			for range c.draws {
				r.Int63()
			}
			for range c.norms {
				r.NormFloat64()
			}
		}); allocs != float64(c.allocs) {
			t.Errorf("%d draws and %d normal variates allocate %v times, want %d", c.draws, c.norms, allocs, c.allocs)
		}
	}
}
