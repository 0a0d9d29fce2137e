// Package stats provides the random-number, probability-distribution and
// descriptive-statistics substrate used by every experiment in this
// repository.
//
// The paper's evaluation (Section 4.3) draws worker speeds from three
// distributions — homogeneous, Uniform[1,100] and LogNormal(0,1) — and
// reports means with standard-deviation error bars over 100 random trials.
// This package supplies those distributions with reproducible seeding, plus
// the streaming accumulators used to aggregate trial results.
package stats

import "math/rand"

// RNG is a deterministic pseudo-random source. All randomness in the
// repository flows through an explicit *RNG so that every experiment and
// test is reproducible from its seed.
//
// The math/rand source is built on the first draw, not at construction:
// seeding one costs a 4.9 kB table and ~1 800 generator steps, and many
// per-trial generators (a homogeneous platform, a constant distribution)
// never draw. The stream is the same either way.
type RNG struct {
	seed int64
	src  *rand.Rand
}

// NewRNG returns a generator seeded with seed. Equal seeds yield identical
// streams on all platforms (math/rand's generator is platform-independent).
func NewRNG(seed int64) *RNG {
	return &RNG{seed: seed}
}

// source returns the math/rand source, seeding it on first use. Seeding
// sits in its own function so that source inlines into each draw method,
// which saves a call per draw.
func (r *RNG) source() *rand.Rand {
	if r.src == nil {
		r.seedSource()
	}
	return r.src
}

func (r *RNG) seedSource() { r.src = rand.New(rand.NewSource(r.seed)) }

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 { return r.source().Float64() }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int { return r.source().Intn(n) }

// Int63 returns a uniform non-negative 63-bit integer.
func (r *RNG) Int63() int64 { return r.source().Int63() }

// NormFloat64 returns a standard normal variate (mean 0, stddev 1).
func (r *RNG) NormFloat64() float64 { return r.source().NormFloat64() }

// ExpFloat64 returns an exponential variate with rate 1.
func (r *RNG) ExpFloat64() float64 { return r.source().ExpFloat64() }

// Perm returns a uniform random permutation of [0, n).
func (r *RNG) Perm(n int) []int { return r.source().Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) { r.source().Shuffle(n, swap) }

// Split derives an independent generator from r. Successive calls yield
// generators with distinct, deterministic seeds; this lets one experiment
// seed hand out per-trial sources without correlating their streams. The
// child's source is built on its first draw.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Int63())
}
