package dlt

import (
	"math"
	"testing"
	"testing/quick"

	"nlfl/internal/dessim"
	"nlfl/internal/platform"
	"nlfl/internal/stats"
)

func randomPlatform(t *testing.T, seed int64, p int) *platform.Platform {
	t.Helper()
	r := stats.NewRNG(seed)
	ws := make([]platform.Worker, p)
	for i := range ws {
		ws[i] = platform.Worker{
			Speed:     0.5 + 5*r.Float64(),
			Bandwidth: 0.5 + 5*r.Float64(),
		}
	}
	pl, err := platform.New(ws)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestOptimalParallelHomogeneous(t *testing.T) {
	p, _ := platform.Homogeneous(4, 1, 1)
	a, err := OptimalParallel(p, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, f := range a.Fractions {
		if math.Abs(f-0.25) > 1e-12 {
			t.Errorf("fraction %d = %v, want 0.25", i, f)
		}
	}
	// Makespan: each worker gets 25 units, c=w=1 → 25+25 = 50.
	if math.Abs(a.Makespan-50) > 1e-9 {
		t.Errorf("makespan = %v, want 50", a.Makespan)
	}
}

func TestOptimalParallelEqualFinishTimes(t *testing.T) {
	p := randomPlatform(t, 1, 9)
	const n = 1000
	a, err := OptimalParallel(p, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p.P(); i++ {
		w := p.Worker(i)
		load := a.Fractions[i] * n
		finish := w.CommTime(load) + w.LinearCompTime(load)
		if math.Abs(finish-a.Makespan) > 1e-9*a.Makespan {
			t.Errorf("worker %d finishes at %v, makespan %v", i, finish, a.Makespan)
		}
	}
}

func TestOptimalParallelMatchesSimulator(t *testing.T) {
	p := randomPlatform(t, 2, 7)
	const n = 500
	a, err := OptimalParallel(p, n)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := SimulatedMakespan(p, Chunks(a, n), dessim.ParallelLinks)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sim-a.Makespan) > 1e-9*a.Makespan {
		t.Errorf("simulated %v vs closed form %v", sim, a.Makespan)
	}
}

func TestOptimalParallelBeatsEqualSplit(t *testing.T) {
	p := randomPlatform(t, 3, 12)
	const n = 100
	opt, _ := OptimalParallel(p, n)
	eq := EqualSplit(p, n)
	if opt.Makespan > eq.Makespan+1e-9 {
		t.Errorf("optimal %v worse than equal split %v", opt.Makespan, eq.Makespan)
	}
	if err := eq.Validate(); err != nil {
		t.Error(err)
	}
}

func TestEqualSplitHomogeneousIsOptimal(t *testing.T) {
	p, _ := platform.Homogeneous(5, 2, 3)
	const n = 60
	opt, _ := OptimalParallel(p, n)
	eq := EqualSplit(p, n)
	if math.Abs(opt.Makespan-eq.Makespan) > 1e-9 {
		t.Errorf("homogeneous equal split %v should equal optimal %v", eq.Makespan, opt.Makespan)
	}
}

func TestOptimalOnePortEqualFinishTimes(t *testing.T) {
	p := randomPlatform(t, 4, 6)
	const n = 300
	a, err := OptimalOnePort(p, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	// Closed-form finish of worker order[k]:
	// Σ_{j≤k} α_j c_j n + α_k w_k n; all must equal the makespan.
	elapsed := 0.0
	for _, idx := range a.Order {
		w := p.Worker(idx)
		load := a.Fractions[idx] * n
		elapsed += w.CommTime(load)
		finish := elapsed + w.LinearCompTime(load)
		if math.Abs(finish-a.Makespan) > 1e-9*a.Makespan {
			t.Errorf("worker %d finishes at %v, makespan %v", idx, finish, a.Makespan)
		}
	}
}

func TestOptimalOnePortMatchesSimulator(t *testing.T) {
	p := randomPlatform(t, 5, 8)
	const n = 700
	a, err := OptimalOnePort(p, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := SimulatedMakespan(p, Chunks(a, n), dessim.OnePort)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sim-a.Makespan) > 1e-9*a.Makespan {
		t.Errorf("simulated %v vs closed form %v", sim, a.Makespan)
	}
}

func TestBestOnePortOrderSortsByBandwidth(t *testing.T) {
	ws := []platform.Worker{
		{Speed: 1, Bandwidth: 2},
		{Speed: 1, Bandwidth: 5},
		{Speed: 1, Bandwidth: 1},
	}
	p, _ := platform.New(ws)
	order := BestOnePortOrder(p)
	want := []int{1, 0, 2}
	for i := range order {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestBestOnePortOrderIsOptimalAmongPermutations(t *testing.T) {
	// Exhaustive check on 4 workers: the bandwidth order achieves the
	// minimal closed-form makespan over all 24 permutations.
	p := randomPlatform(t, 6, 4)
	const n = 100
	best, err := OptimalOnePort(p, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	perms := permutations([]int{0, 1, 2, 3})
	for _, perm := range perms {
		a, err := OptimalOnePort(p, n, perm)
		if err != nil {
			t.Fatal(err)
		}
		if a.Makespan < best.Makespan-1e-9 {
			t.Errorf("order %v gives %v < best-order %v", perm, a.Makespan, best.Makespan)
		}
	}
}

func permutations(xs []int) [][]int {
	if len(xs) <= 1 {
		return [][]int{append([]int(nil), xs...)}
	}
	var out [][]int
	for i := range xs {
		rest := make([]int, 0, len(xs)-1)
		rest = append(rest, xs[:i]...)
		rest = append(rest, xs[i+1:]...)
		for _, tail := range permutations(rest) {
			out = append(out, append([]int{xs[i]}, tail...))
		}
	}
	return out
}

func TestOptimalOnePortRejectsBadOrder(t *testing.T) {
	p := randomPlatform(t, 7, 3)
	if _, err := OptimalOnePort(p, 10, []int{0, 1}); err == nil {
		t.Error("short order should fail")
	}
	if _, err := OptimalOnePort(p, 10, []int{0, 0, 1}); err == nil {
		t.Error("duplicate order should fail")
	}
	if _, err := OptimalOnePort(p, 10, []int{0, 1, 5}); err == nil {
		t.Error("out-of-range order should fail")
	}
	if _, err := OptimalOnePort(p, -1, nil); err == nil {
		t.Error("negative load should fail")
	}
	if _, err := OptimalParallel(p, -1); err == nil {
		t.Error("negative load should fail")
	}
}

func TestMultiRoundPipeliningHelps(t *testing.T) {
	// With non-trivial communication time, multi-round overlaps transfer
	// and compute, so its simulated makespan must not exceed single-round.
	p := randomPlatform(t, 8, 5)
	const n = 400
	a, _ := OptimalParallel(p, n)
	single, err := SimulatedMakespan(p, Chunks(a, n), dessim.ParallelLinks)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := MultiRoundUniform(a, n, 10)
	if err != nil {
		t.Fatal(err)
	}
	multiMs, err := SimulatedMakespan(p, multi, dessim.ParallelLinks)
	if err != nil {
		t.Fatal(err)
	}
	if multiMs > single+1e-9 {
		t.Errorf("multi-round %v slower than single-round %v", multiMs, single)
	}
	// The same holds behind a one-port master: on four homogeneous workers
	// 32 rounds are no worse than 4.
	hom, err := platform.Homogeneous(4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, _ = OptimalParallel(hom, 200)
	onePort := func(rounds int) float64 {
		chunks, err := MultiRoundUniform(a, 200, rounds)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := SimulatedMakespan(hom, chunks, dessim.OnePort)
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}
	if m32, m4 := onePort(32), onePort(4); m32 > m4+1e-9 {
		t.Errorf("one-port: 32 rounds (%v) should not lose to 4 (%v)", m32, m4)
	}
}

func TestMultiRoundPreservesTotalLoad(t *testing.T) {
	p := randomPlatform(t, 9, 4)
	a, _ := OptimalParallel(p, 100)
	chunks, err := MultiRoundUniform(a, 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, c := range chunks {
		total += c.Data
	}
	if math.Abs(total-100) > 1e-9 {
		t.Errorf("total data = %v, want 100", total)
	}
	if _, err := MultiRoundUniform(a, 100, 0); err == nil {
		t.Error("zero rounds should fail")
	}
}

func TestChunksRespectOnePortOrder(t *testing.T) {
	p := randomPlatform(t, 10, 5)
	a, _ := OptimalOnePort(p, 50, nil)
	chunks := Chunks(a, 50)
	for k, c := range chunks {
		if c.Worker != a.Order[k] {
			t.Fatalf("chunk %d targets %d, want order %v", k, c.Worker, a.Order)
		}
	}
}

// Property: for any valid platform, the optimal parallel allocation is
// feasible and its makespan lower-bounds both equal split and any random
// feasible allocation.
func TestOptimalParallelIsOptimalProperty(t *testing.T) {
	f := func(seed int64, np uint8) bool {
		p := int(np%16) + 1
		r := stats.NewRNG(seed)
		ws := make([]platform.Worker, p)
		for i := range ws {
			ws[i] = platform.Worker{Speed: 0.1 + 10*r.Float64(), Bandwidth: 0.1 + 10*r.Float64()}
		}
		pl, err := platform.New(ws)
		if err != nil {
			return false
		}
		const n = 100
		opt, err := OptimalParallel(pl, n)
		if err != nil || opt.Validate() != nil {
			return false
		}
		// Random feasible allocation: draw and normalize.
		fr := make([]float64, p)
		sum := 0.0
		for i := range fr {
			fr[i] = r.Float64() + 1e-3
			sum += fr[i]
		}
		worst := 0.0
		for i := range fr {
			fr[i] /= sum
			w := pl.Worker(i)
			finish := w.CommTime(fr[i]*n) + w.LinearCompTime(fr[i]*n)
			if finish > worst {
				worst = finish
			}
		}
		return opt.Makespan <= worst+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: one-port fractions are a valid distribution and the simulated
// makespan matches the closed form for arbitrary platforms and orders.
func TestOnePortClosedFormMatchesSimProperty(t *testing.T) {
	f := func(seed int64, np uint8) bool {
		p := int(np%8) + 1
		r := stats.NewRNG(seed)
		ws := make([]platform.Worker, p)
		for i := range ws {
			ws[i] = platform.Worker{Speed: 0.2 + 5*r.Float64(), Bandwidth: 0.2 + 5*r.Float64()}
		}
		pl, err := platform.New(ws)
		if err != nil {
			return false
		}
		order := r.Perm(p)
		const n = 50
		a, err := OptimalOnePort(pl, n, order)
		if err != nil || a.Validate() != nil {
			return false
		}
		sim, err := SimulatedMakespan(pl, Chunks(a, n), dessim.OnePort)
		if err != nil {
			return false
		}
		return math.Abs(sim-a.Makespan) <= 1e-6*a.Makespan
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
