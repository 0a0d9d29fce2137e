package stats

import (
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

// The source is built on the first draw; the stream must be exactly the
// one an eagerly seeded math/rand source gives, for NewRNG and for Split.
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

// A split generator that never draws costs one small allocation, not a
// seeded math/rand source.
func TestRNGSplitAllocatesOnce(t *testing.T) {
	root := NewRNG(42)
	root.Int63() // seed the root outside the measurement
	var sink *RNG
	if allocs := testing.AllocsPerRun(100, func() { sink = root.Split() }); allocs != 1 {
		t.Fatalf("Split allocates %v times, want 1", allocs)
	}
	_ = sink
}
