package runtime

import (
	"testing"

	"nlfl/internal/stats"
	"nlfl/internal/trace"
)

// linkVectors returns deterministic test vectors of length n.
func linkVectors(n int) (a, b []float64) {
	r := stats.NewRNG(17)
	a = stats.SampleN(stats.Uniform{Lo: -1, Hi: 1}, r, n)
	b = stats.SampleN(stats.Uniform{Lo: -1, Hi: 1}, r, n)
	return a, b
}

// gridPlan builds a demand-driven grid plan with the exact 2·N·g volume.
func gridPlan(t *testing.T, n, grid int) *StrategyPlan {
	t.Helper()
	chunks, err := GridChunks(n, grid)
	if err != nil {
		t.Fatal(err)
	}
	return &StrategyPlan{Strategy: "hom", N: n, Chunks: chunks, Grid: grid, K: 1,
		Predicted: float64(2 * n * grid)}
}

func TestLinkPacesCommTime(t *testing.T) {
	const (
		n  = 32
		bw = 12800.0 // elements/s: 128 elements take 10 ms
	)
	a, b := linkVectors(n)
	plan := gridPlan(t, n, 2)
	rep, err := Run(plan, a, b, Options{
		Speeds:        []float64{1},
		WorkPerSecond: 1e8, // compute is negligible next to comm
		Link:          Link{ElemsPerSecond: bw},
		VerifyEvery:   7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DataVolume != 128 {
		t.Fatalf("volume %v, want 128", rep.DataVolume)
	}
	wantComm := rep.DataVolume / bw
	if rep.CommTime < 0.95*wantComm {
		t.Errorf("comm time %v, want ≥ %v (bandwidth not paced)", rep.CommTime, 0.95*wantComm)
	}
	if rep.Makespan < 0.95*wantComm {
		t.Errorf("makespan %v below the link-bound %v", rep.Makespan, wantComm)
	}
	if rep.LinkCapacity != bw {
		t.Errorf("report link capacity %v, want %v", rep.LinkCapacity, bw)
	}
	exp := rep.Expect(1e-6)
	if exp.LinkCapacity != bw {
		t.Errorf("Expect does not thread the link capacity: %v", exp.LinkCapacity)
	}
	if vs := trace.Check(rep.Trace, exp); len(vs) != 0 {
		t.Errorf("trace violations: %v", vs)
	}
}

// TestLinkSerializesAcrossWorkers checks the one-port model: with p
// workers sharing the master link, the makespan cannot beat total
// volume / bandwidth no matter the parallelism, and the trace passes the
// link-capacity invariant.
func TestLinkSerializesAcrossWorkers(t *testing.T) {
	const (
		n  = 64
		bw = 25600.0 // 2·64·4 = 512 elements take 20 ms
	)
	a, b := linkVectors(n)
	plan := gridPlan(t, n, 4)
	rep, err := Run(plan, a, b, Options{
		Speeds:        []float64{1, 1, 1, 1},
		WorkPerSecond: 1e8,
		Link:          Link{ElemsPerSecond: bw},
	})
	if err != nil {
		t.Fatal(err)
	}
	linkBound := rep.DataVolume / bw
	if rep.Makespan < 0.95*linkBound {
		t.Errorf("makespan %v beats the one-port bound %v — transfers not serialized", rep.Makespan, linkBound)
	}
	if vs := trace.Check(rep.Trace, rep.Expect(1e-6)); len(vs) != 0 {
		t.Errorf("trace violations: %v", vs)
	}
}

// TestPrefetchOverlapsCommWithCompute balances per-chunk transfer and
// compute times and checks that double-buffered prefetch hides most of
// the communication — and that without prefetch nothing overlaps.
func TestPrefetchOverlapsCommWithCompute(t *testing.T) {
	const (
		n    = 64
		grid = 4
		work = 1e5     // 256-cell chunks: 2.56 ms compute each
		bw   = 25000.0 // 32-element chunks: 1.28 ms transfer each
	)
	a, b := linkVectors(n)
	base := Options{
		Speeds:        []float64{1},
		WorkPerSecond: work,
		// A 1-cell burst keeps comm waits from banking compute credit,
		// so the throttle really paces every chunk and overlap is
		// attributable to prefetch alone.
		Burst:       1,
		Link:        Link{ElemsPerSecond: bw},
		VerifyEvery: 13,
	}

	plain, err := Run(gridPlan(t, n, grid), a, b, base)
	if err != nil {
		t.Fatal(err)
	}
	if plain.OverlapFraction > 0.05 {
		t.Errorf("no-prefetch run reports overlap %v, want ~0", plain.OverlapFraction)
	}

	pre := base
	pre.Prefetch = true
	over, err := Run(gridPlan(t, n, grid), a, b, pre)
	if err != nil {
		t.Fatal(err)
	}
	if over.OverlapFraction < 0.3 {
		t.Errorf("prefetch run hides only %v of comm time, want ≥ 0.3", over.OverlapFraction)
	}
	if over.Makespan > 0.95*plain.Makespan {
		t.Errorf("prefetch makespan %v not clearly below sequential %v", over.Makespan, plain.Makespan)
	}
	for _, rep := range []*Report{plain, over} {
		if vs := trace.Check(rep.Trace, rep.Expect(1e-6)); len(vs) != 0 {
			t.Errorf("trace violations: %v", vs)
		}
	}
}

// TestLinkPerWorkerRates caps only worker 0's own link: its transfers
// must stretch to the configured rate while worker 1 still copies at
// memcpy speed.
func TestLinkPerWorkerRates(t *testing.T) {
	const n = 64
	a, b := linkVectors(n)
	// Two owned halves: each worker ships (32 rows + 64 cols) = 96 elems.
	chunks := []Chunk{
		{Task: 0, RowLo: 0, RowHi: 32, ColLo: 0, ColHi: 64, Owner: 0},
		{Task: 1, RowLo: 32, RowHi: 64, ColLo: 0, ColHi: 64, Owner: 1},
	}
	plan := &StrategyPlan{Strategy: "het", N: n, Chunks: chunks, Predicted: 192}
	rep, err := Run(plan, a, b, Options{
		Speeds:        []float64{1, 1},
		WorkPerSecond: 1e8,
		Link:          Link{PerWorker: []float64{9600, 0}}, // worker 0: 96 elems in 10 ms
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.PerWorkerCommTime[0]; got < 0.009 {
		t.Errorf("capped worker's comm time %v, want ≥ 10 ms", got)
	}
	if got := rep.PerWorkerCommTime[1]; got > 0.005 {
		t.Errorf("uncapped worker's comm time %v, want memcpy-fast", got)
	}
	if rep.LinkCapacity != 0 {
		t.Errorf("aggregate capacity %v reported without a shared-port cap", rep.LinkCapacity)
	}
	if vs := trace.Check(rep.Trace, rep.Expect(1e-6)); len(vs) != 0 {
		t.Errorf("trace violations: %v", vs)
	}
}

func TestLinkOptionValidation(t *testing.T) {
	const n = 8
	a, b := linkVectors(n)
	plan := gridPlan(t, n, 2)
	_, err := Run(plan, a, b, Options{
		Speeds: []float64{1, 1},
		Link:   Link{PerWorker: []float64{1e6}}, // 1 rate for 2 workers
	})
	if err == nil {
		t.Error("mismatched per-worker link rates should fail")
	}
}
