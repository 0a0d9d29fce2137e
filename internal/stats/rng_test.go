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

// float64sMatch fills blocks of the given sizes with Float64s and checks
// each against as many Float64 calls on a second generator of the same
// stream, bit for bit.
func float64sMatch(got, want *RNG, sizes []int) error {
	for _, n := range sizes {
		dst := make([]float64, n)
		got.Float64s(dst)
		for i, f := range dst {
			if w := want.Float64(); math.Float64bits(f) != math.Float64bits(w) {
				return fmt.Errorf("block of %d, draw %d: Float64s gives %v, Float64 gives %v", n, i, f, w)
			}
		}
	}
	return nil
}

// Float64s is len(dst) Float64 calls: in blocks that end before, at and
// just past the rngTap draws that build no state, one that wraps the
// state's indices, and blocks longer than the state.
func TestFloat64sMatchesFloat64(t *testing.T) {
	sizes := []int{0, 1, 272, 273, 274, 607, 4096}
	for _, seed := range []int64{0, 1, 7, 42, -3} {
		for i, n := range sizes {
			// Each block size alone from the start of the stream, then
			// every size in turn, so the blocks start at many offsets.
			if err := float64sMatch(NewRNG(seed), NewRNG(seed), []int{n, n, 3 * n}); err != nil {
				t.Fatalf("seed %d, size %d: %v", seed, n, err)
			}
			if err := float64sMatch(NewRNG(seed), NewRNG(seed), append(sizes[i:], sizes[:i]...)); err != nil {
				t.Fatalf("seed %d, sizes from %d: %v", seed, n, err)
			}
		}
	}
}

// plantRedraw builds r's state and sets the word that r's draw ahead
// from now (0 for the next, ahead < rngTap) returns so that its 63 bits
// are 2⁶³−1 − low, which Float64 rounds to 1 for low < 512, and so
// redraws. The steps in between write no word that draw reads.
func plantRedraw(r *RNG, ahead int, low int64) {
	for r.src == nil {
		r.Int63()
	}
	s := r.src
	tap, feed := (s.tap-1-ahead+2*rngLen)%rngLen, (s.feed-1-ahead+2*rngLen)%rngLen
	s.vec[feed] = math.MaxInt64 - low - s.vec[tap]
}

// A draw that rounds to 1 is drawn again by Float64, and Float64s must
// redraw the same way, as the first, a middle or the last draw of a block
// and at several phases of the state's indices.
func TestFloat64sRedrawsLikeFloat64(t *testing.T) {
	for _, low := range []int64{0, 511} {
		for _, at := range []int{0, 1, 300, 606, 607, 1000} {
			planted := NewRNG(42)
			for range rngLen + at {
				planted.Int63()
			}
			plantRedraw(planted, 2, low)
			// The planted draw does redraw: Float64 returns the draw after.
			probe := planted.Clone()
			probe.Float64s(make([]float64, 2))
			probe.Int63()
			next := float64(probe.Int63()) / (1 << 63)
			probe = planted.Clone()
			probe.Float64s(make([]float64, 2))
			if f := probe.Float64(); f != next {
				t.Fatalf("low %d at %d: Float64 gives %v, not the redraw %v", low, at, f, next)
			}
			for _, sizes := range [][]int{{3, 700}, {5, 700}, {2, 1, 700}, {1, 1, 1, 1}, {700}} {
				if err := float64sMatch(planted.Clone(), planted.Clone(), sizes); err != nil {
					t.Fatalf("low %d at %d, blocks %v: %v", low, at, sizes, err)
				}
			}
		}
	}
}

// A block's draws are the stream's next draws for any seed and any
// sequence of block sizes, whatever the stream has already drawn.
func FuzzFloat64sMatchesFloat64(f *testing.F) {
	f.Add(int64(42), uint16(0), uint16(273), uint16(274), uint16(4096))
	f.Add(int64(-7), uint16(1), uint16(272), uint16(607), uint16(606))
	f.Add(int64(0), uint16(500), uint16(500), uint16(500), uint16(500))
	f.Fuzz(func(t *testing.T, seed int64, skip, a, b, c uint16) {
		got, want := NewRNG(seed), NewRNG(seed)
		for range skip % 1500 {
			got.Int63()
			want.Int63()
		}
		if err := float64sMatch(got, want, []int{int(a % 5000), int(b % 5000), int(c % 5000)}); err != nil {
			t.Fatal(err)
		}
	})
}

// A clone continues its original's stream, and drawing from the original
// first does not move the clone, before and after the state is built.
func TestCloneContinuesStream(t *testing.T) {
	for _, draws := range []int{0, 100, rngTap, rngTap + 1, 2000} {
		r := NewRNG(7)
		for range draws {
			r.Float64()
		}
		c := r.Clone()
		want := drawAll(r)
		if got := drawAll(c); !slices.Equal(got, want) {
			t.Fatalf("after %d draws: the clone's stream differs", draws)
		}
		ref := rand.New(rand.NewSource(7))
		for range draws {
			ref.Float64()
		}
		if got := drawAll(ref); !slices.Equal(got, want) {
			t.Fatalf("after %d draws: the original's stream differs from math/rand", draws)
		}
	}
}

// BenchmarkFloat64s compares a block fill with one Float64 call a draw.
func BenchmarkFloat64s(b *testing.B) {
	dst := make([]float64, 4096)
	b.Run("block", func(b *testing.B) {
		r := NewRNG(42)
		for range b.N {
			r.Float64s(dst)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(dst)), "ns/draw")
	})
	b.Run("calls", func(b *testing.B) {
		r := NewRNG(42)
		for range b.N {
			for i := range dst {
				dst[i] = r.Float64()
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(dst)), "ns/draw")
	})
}
