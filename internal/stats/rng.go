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
// Its stream is exactly that of rand.New(rand.NewSource(seed)): a
// rand.Rand over this package's copy of math/rand's generator serves
// every method.
// Each word of the generator's seeded state is a function of the seed
// alone (seedWord), and the first rngTap = 273 draws read only words that
// no draw has written back, so those draws compute their two words on
// the spot. The 4.9 kB state is built only when a generator draws more:
// most per-trial generators (a platform's p ≤ 100 speeds) never do, and
// some (a homogeneous platform, a constant distribution) never draw.
// NewRNG makes an RNG; the zero RNG is not one.
//
// One draw at a time, a call that skipped rand.Rand to step the state
// directly saved nothing measurable. A block does: Float64s fills a slice
// with the same draws as that many Float64 calls, stepping the state in
// loops that neither wrap an index nor call a method per draw, at 2.9–3.8
// ns a draw against 10.1–10.8 for Float64 (BenchmarkFloat64s, 4 096-draw
// blocks, Intel Xeon).
type RNG struct {
	x   uint64    // the seed as math/rand's Seed normalises it
	n   int       // draws made before src was built
	src *source   // the state, from draw rngTap+1 on
	rnd rand.Rand // draws from r itself
}

// NewRNG returns a generator seeded with seed. Equal seeds yield identical
// streams on all platforms (math/rand's generator is platform-independent).
func NewRNG(seed int64) *RNG {
	r := new(RNG)
	r.seed(seed)
	return r
}

// seed restarts r at the beginning of seed's stream.
func (r *RNG) seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	*r = RNG{x: uint64(seed)}
	r.rnd = *rand.New((*stream)(r))
}

// early serves a draw before the state exists. Draw k (from 0) adds
// seeded words rngLen−rngTap−1−k and rngLen−1−k, and for k < rngTap no
// earlier draw has written either back. Draw rngTap is the first to read
// a written-back word, so it builds the state and replays the draws made
// so far.
func (r *RNG) early() uint64 {
	if k := r.n; k < rngTap {
		r.n++
		return uint64(seedWord(r.x, rngLen-rngTap-1-k) + seedWord(r.x, rngLen-1-k))
	}
	s := &source{feed: rngLen - rngTap}
	for i := range s.vec {
		s.vec[i] = seedWord(r.x, i)
	}
	for range r.n {
		s.Uint64()
	}
	r.src = s
	return s.Uint64()
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 { return r.rnd.Float64() }

// Float64s fills dst with the next len(dst) draws of Float64, as that
// many calls would return them. The first rngTap draws, which build no
// state, go through Float64 one by one.
func (r *RNG) Float64s(dst []float64) {
	for len(dst) > 0 && r.src == nil {
		dst[0] = r.Float64()
		dst = dst[1:]
	}
	if len(dst) > 0 {
		r.src.float64s(dst)
	}
}

// Clone returns a generator that continues r's stream from where r is
// now, independently of r.
func (r *RNG) Clone() *RNG {
	c := &RNG{x: r.x, n: r.n}
	if r.src != nil {
		src := *r.src
		c.src = &src
	}
	c.rnd = *rand.New((*stream)(c))
	return c
}

// Int63 returns a uniform non-negative 63-bit integer.
func (r *RNG) Int63() int64 { return r.rnd.Int63() }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int { return r.rnd.Intn(n) }

// NormFloat64 returns a standard normal variate (mean 0, stddev 1).
func (r *RNG) NormFloat64() float64 { return r.rnd.NormFloat64() }

// ExpFloat64 returns an exponential variate with rate 1.
func (r *RNG) ExpFloat64() float64 { return r.rnd.ExpFloat64() }

// Perm returns a uniform random permutation of [0, n).
func (r *RNG) Perm(n int) []int { return r.rnd.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) { r.rnd.Shuffle(n, swap) }

// Split derives an independent generator from r. Successive calls yield
// generators with distinct, deterministic seeds; this lets one experiment
// seed hand out per-trial sources without correlating their streams.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Int63())
}

// stream is an RNG as a rand.Source, the one place a draw steps the
// state.
type stream RNG

func (s *stream) Int63() int64 {
	if src := s.src; src != nil {
		return int64(src.Uint64() & rngMask)
	}
	return int64((*RNG)(s).early() & rngMask)
}

func (s *stream) Seed(seed int64) { (*RNG)(s).seed(seed) }

const (
	rngLen   = 607 // words of state
	rngTap   = 273 // the second lag
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1 // the prime modulus of seedrand
	// seedWarmup is the number of seedrand steps that math/rand's Seed
	// discards before it fills the first word.
	seedWarmup = 20
)

// source is the state of math/rand's additive lagged-Fibonacci generator
// (x[n] = x[n-273] + x[n-607] mod 2⁶⁴), the one rand.NewSource returns.
type source struct {
	tap, feed int
	vec       [rngLen]int64
}

// seedrand is math/rand's seeding step x ↦ 48271·x mod (2³¹−1), in
// Schrage's form, which is exact for 0 ≤ x < 2³¹−1.
func seedrand(x int32) int32 {
	const (
		A = 48271
		Q = 44488
		R = 3399
	)
	hi := x / Q
	lo := x % Q
	x = A*lo - R*hi
	if x < 0 {
		x += int32max
	}
	return x
}

// seedPow[i][j] is 48271^(seedWarmup+3i+j+1) mod (2³¹−1). math/rand's Seed
// runs seedrand from the seed x₀ one step at a time and builds word i from
// its steps seedWarmup+3i+1 … seedWarmup+3i+3; step k is x₀·48271ᵏ mod
// (2³¹−1), so one product with this table jumps straight to it. The table
// runs the same recurrence from 1, once.
var seedPow = func() (pow [rngLen][3]uint64) {
	x := int32(1)
	for range seedWarmup {
		x = seedrand(x)
	}
	for i := range pow {
		for j := range pow[i] {
			x = seedrand(x)
			pow[i][j] = uint64(x)
		}
	}
	return pow
}()

// mulmod returns a·b mod (2³¹−1) for 0 < a, b < 2³¹−1. The product fits
// in 62 bits, and since 2³¹ ≡ 1 its high bits fold onto its low ones;
// one fold leaves a value below 2·(2³¹−1) that is ≡ a·b and not 0 (the
// modulus is prime), so one subtraction finishes it.
func mulmod(a, b uint64) uint64 {
	y := a * b
	y = y&int32max + y>>31
	if y >= int32max {
		y -= int32max
	}
	return y
}

// seedWord is word i of the state math/rand's Seed sets for the
// normalised seed x: its three seedrand steps, as jump-ahead products,
// XORed with rngCooked. The words do not depend on each other, so the
// state costs 1 821 independent products, not a chain of 1 841 steps.
func seedWord(x uint64, i int) int64 {
	p := &seedPow[i]
	u := int64(mulmod(x, p[0])) << 40
	u ^= int64(mulmod(x, p[1])) << 20
	u ^= int64(mulmod(x, p[2]))
	return u ^ rngCooked[i]
}

// float64s fills dst as math/rand's Float64 does from successive steps:
// the 63 low bits of a word over 2⁶³, drawn again when that rounds to 1.
// Each inner loop runs while neither index wraps (Uint64 moves an index
// at 0 to rngLen−1, as starting it at rngLen does), and keeps a draw by
// advancing k only when it is below 1.
func (s *source) float64s(dst []float64) {
	for len(dst) > 0 {
		if s.tap == 0 {
			s.tap = rngLen
		}
		if s.feed == 0 {
			s.feed = rngLen
		}
		tap, feed, k := s.tap, s.feed, 0
		for range min(tap, feed, len(dst)) {
			tap--
			feed--
			x := s.vec[feed] + s.vec[tap]
			s.vec[feed] = x
			f := float64(x&rngMask) / (1 << 63)
			dst[k] = f
			if f < 1 {
				k++
			}
		}
		s.tap, s.feed = tap, feed
		dst = dst[k:]
	}
}

// Uint64 steps the generator.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}
