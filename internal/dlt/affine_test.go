package dlt

import (
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"nlfl/internal/platform"
	"nlfl/internal/stats"
)

func TestAffineZeroLatencyMatchesPlainModel(t *testing.T) {
	p := randomPlatform(t, 20, 7)
	const n = 500
	plain, err := OptimalParallel(p, n)
	if err != nil {
		t.Fatal(err)
	}
	affine, err := OptimalParallelAffine(p, AffineCosts{Latency: make([]float64, p.P())}, n)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plain.Makespan-affine.Makespan) > 1e-6*plain.Makespan {
		t.Errorf("zero-latency affine %v != plain %v", affine.Makespan, plain.Makespan)
	}
	for i := range plain.Fractions {
		if math.Abs(plain.Fractions[i]-affine.Fractions[i]) > 1e-6 {
			t.Errorf("fraction %d: %v vs %v", i, plain.Fractions[i], affine.Fractions[i])
		}
	}
}

func TestAffineEqualFinishAmongParticipants(t *testing.T) {
	p := randomPlatform(t, 21, 6)
	lat := []float64{0, 1, 2, 0.5, 3, 10}
	const n = 100
	a, err := OptimalParallelAffine(p, AffineCosts{Latency: lat}, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, f := range a.Fractions {
		if f <= 1e-12 {
			continue
		}
		w := p.Worker(i)
		finish := lat[i] + f*n*(1/w.Bandwidth+1/w.Speed)
		if math.Abs(finish-a.Makespan) > 1e-6*a.Makespan {
			t.Errorf("worker %d finish %v vs makespan %v", i, finish, a.Makespan)
		}
	}
}

func TestAffineExcludesHighLatencyWorkers(t *testing.T) {
	// Two fast workers with zero latency and one whose latency dwarfs the
	// problem: the slow-to-reach worker must receive nothing.
	p, err := platform.FromSpeeds([]float64{10, 10, 10})
	if err != nil {
		t.Fatal(err)
	}
	a, err := OptimalParallelAffine(p, AffineCosts{Latency: []float64{0, 0, 1e6}}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fractions[2] > 1e-12 {
		t.Errorf("unreachable worker got %v", a.Fractions[2])
	}
	if ParticipantCount(a) != 2 {
		t.Errorf("participants = %d, want 2", ParticipantCount(a))
	}
}

func TestAffineLatencyHurtsMonotonically(t *testing.T) {
	p := randomPlatform(t, 22, 5)
	const n = 200
	prev := 0.0
	for _, scale := range []float64{0, 0.5, 2, 10} {
		lat := make([]float64, p.P())
		for i := range lat {
			lat[i] = scale
		}
		a, err := OptimalParallelAffine(p, AffineCosts{Latency: lat}, n)
		if err != nil {
			t.Fatal(err)
		}
		if a.Makespan < prev-1e-9 {
			t.Errorf("makespan decreased with latency: %v after %v", a.Makespan, prev)
		}
		prev = a.Makespan
	}
}

func TestAffineValidation(t *testing.T) {
	p := randomPlatform(t, 23, 3)
	if _, err := OptimalParallelAffine(p, AffineCosts{Latency: []float64{0}}, 10); err == nil {
		t.Error("wrong latency length should fail")
	}
	if _, err := OptimalParallelAffine(p, AffineCosts{Latency: []float64{0, -1, 0}}, 10); err == nil {
		t.Error("negative latency should fail")
	}
	if _, err := OptimalParallelAffine(p, AffineCosts{Latency: []float64{0, 0, 0}}, -1); err == nil {
		t.Error("negative load should fail")
	}
}

// Property: the affine solution is feasible and its makespan never beats
// the zero-latency optimum.
func TestAffineProperty(t *testing.T) {
	f := func(seed int64, np uint8) bool {
		p := int(np%8) + 1
		r := stats.NewRNG(seed)
		ws := make([]platform.Worker, p)
		lat := make([]float64, p)
		for i := range ws {
			ws[i] = platform.Worker{Speed: 0.2 + 5*r.Float64(), Bandwidth: 0.2 + 5*r.Float64()}
			lat[i] = r.Float64() * 3
		}
		pl, err := platform.New(ws)
		if err != nil {
			return false
		}
		const n = 50
		affine, err := OptimalParallelAffine(pl, AffineCosts{Latency: lat}, n)
		if err != nil || affine.Validate() != nil {
			return false
		}
		plain, err := OptimalParallel(pl, n)
		if err != nil {
			return false
		}
		return affine.Makespan >= plain.Makespan-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// refOptimalParallelAffine is OptimalParallelAffine as it was before it
// solved through solve.Level: its own doubling bracket and a bisection
// from 0, with the κ formula written in the sum and again in the fill.
func refOptimalParallelAffine(p *platform.Platform, costs AffineCosts, n float64) (Allocation, error) {
	loadAt := func(t float64) float64 {
		sum := 0.0
		for i := 0; i < p.P(); i++ {
			if t <= costs.Latency[i] {
				continue
			}
			w := p.Worker(i)
			sum += (t - costs.Latency[i]) / (1/w.Bandwidth + 1/w.Speed)
		}
		return sum
	}
	hi := 1.0
	for loadAt(hi) < n {
		hi *= 2
		if math.IsInf(hi, 0) {
			return Allocation{}, errors.New("dlt: failed to bracket the makespan")
		}
	}
	lo := 0.0
	for i := 0; i < 200 && hi-lo > 1e-14*(1+hi); i++ {
		mid := (lo + hi) / 2
		if loadAt(mid) < n {
			lo = mid
		} else {
			hi = mid
		}
	}
	fr := make([]float64, p.P())
	total := 0.0
	for i := 0; i < p.P(); i++ {
		if hi <= costs.Latency[i] {
			continue
		}
		w := p.Worker(i)
		fr[i] = (hi - costs.Latency[i]) / (1/w.Bandwidth + 1/w.Speed)
		total += fr[i]
	}
	if total == 0 {
		return Allocation{}, errors.New("dlt: no worker can participate")
	}
	for i := range fr {
		fr[i] /= total
	}
	return Allocation{Fractions: fr, Makespan: hi}, nil
}

// OptimalParallelAffine returns the reference's floats, compared with ==,
// on 10⁴ random platforms whose speeds and bandwidths spread over up to
// nine decades, with latencies that exclude some workers and loads from
// 0 to 10⁶.
func TestOptimalParallelAffineMatchesReference(t *testing.T) {
	r := stats.NewRNG(44)
	spread := func(decades float64) float64 { return math.Pow(10, decades*r.Float64()) }
	for trial := range 10_000 {
		ws := make([]platform.Worker, 1+r.Intn(8))
		lat := make([]float64, len(ws))
		sd, bd := 9*r.Float64(), 9*r.Float64()
		for i := range ws {
			ws[i] = platform.Worker{Speed: spread(sd), Bandwidth: spread(bd)}
			if r.Intn(3) > 0 {
				lat[i] = 10 * r.Float64() * spread(3)
			}
		}
		p, err := platform.New(ws)
		if err != nil {
			t.Fatal(err)
		}
		n := 0.0
		if r.Intn(50) > 0 {
			n = math.Pow(10, 9*r.Float64()-3)
		}
		costs := AffineCosts{Latency: lat}
		got, err := OptimalParallelAffine(p, costs, n)
		want, werr := refOptimalParallelAffine(p, costs, n)
		if (err == nil) != (werr == nil) {
			t.Fatalf("trial %d: error %v, the reference gives %v", trial, err, werr)
		}
		if got.Makespan != want.Makespan || !slices.Equal(got.Fractions, want.Fractions) {
			t.Fatalf("trial %d: %v %v, the reference gives %v %v", trial, got.Makespan, got.Fractions, want.Makespan, want.Fractions)
		}
	}
}
