package runtime

import (
	"math"
	"testing"
	"time"

	"nlfl/internal/matmul"
	"nlfl/internal/platform"
	"nlfl/internal/stats"
	"nlfl/internal/trace"
)

// snappedPlatform returns speeds {1,3,5,7}: Σs/s₁ = 16 is a perfect
// square, so the homogeneous block grid (4) matches the closed form
// exactly and measured volumes must agree with the predictions to float
// precision.
func snappedPlatform(t *testing.T) *platform.Platform {
	t.Helper()
	pl, err := platform.FromSpeeds([]float64{1, 3, 5, 7})
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func runPlan(t *testing.T, pl *platform.Platform, plan *StrategyPlan, a, b []float64) *Report {
	t.Helper()
	rep, err := Run(plan, a, b, Options{
		Speeds:        pl.Speeds(),
		WorkPerSecond: 5e6,
		VerifyEvery:   97,
	})
	if err != nil {
		t.Fatalf("%s: %v", plan.Strategy, err)
	}
	return rep
}

func TestRunStrategiesEndToEnd(t *testing.T) {
	pl := snappedPlatform(t)
	const n = 128
	r := stats.NewRNG(5)
	a := stats.SampleN(stats.Uniform{Lo: -1, Hi: 1}, r, n)
	b := stats.SampleN(stats.Uniform{Lo: -1, Hi: 1}, r, n)
	want := matmul.VectorOuter(a, b)

	plans := []*StrategyPlan{}
	hom, err := PlanHom(pl, n)
	if err != nil {
		t.Fatal(err)
	}
	plans = append(plans, hom)
	homk, err := PlanHomK(pl, n, 0.01, 0)
	if err != nil {
		t.Fatal(err)
	}
	plans = append(plans, homk)
	het, err := PlanHet(pl, n)
	if err != nil {
		t.Fatal(err)
	}
	plans = append(plans, het)

	for _, plan := range plans {
		rep := runPlan(t, pl, plan, a, b)
		if !want.Equal(rep.Out, 0) {
			t.Errorf("%s: product differs from the reference kernel", plan.Strategy)
		}
		// Measured volume vs closed form: exact on a snapped platform for
		// hom and hom/k, within integer-grid rounding for het.
		relErr := math.Abs(rep.DataVolume-rep.Predicted) / rep.Predicted
		if relErr > 0.01 {
			t.Errorf("%s: measured volume %v vs predicted %v (relErr %v)", plan.Strategy, rep.DataVolume, rep.Predicted, relErr)
		}
		// The oracle audits the real run like a simulated one.
		if vs := trace.Check(rep.Trace, rep.Expect(0.01)); len(vs) != 0 {
			t.Errorf("%s: trace violations: %v", plan.Strategy, vs)
		}
		if rep.Makespan <= 0 {
			t.Errorf("%s: non-positive makespan %v", plan.Strategy, rep.Makespan)
		}
	}

	// Exactness on the snapped platform: grid 4 ⇒ volume 2·n·4.
	if got := plans[0].Grid; got != 4 {
		t.Errorf("hom grid = %d, want 4", got)
	}
	if rep := runPlan(t, pl, plans[0], a, b); rep.DataVolume != float64(2*n*4) {
		t.Errorf("hom measured volume %v, want %v", rep.DataVolume, 2*n*4)
	}
}

// TestFillPathsAgreeRagged runs every writer of the outer product over the
// same ragged rectangles — the het plan at n = 97, a multiple of nothing —
// and requires each to == a[i]·b[j] cell for cell: the reference
// (VectorOuter), the in-place rectangle fill (OuterInto), the chunk fill
// every engine and the fleet call (FillChunk), Run's fast path and Run's
// lease engine. All of them execute the one matmul.OuterFill loop.
func TestFillPathsAgreeRagged(t *testing.T) {
	pl := snappedPlatform(t)
	const n = 97
	r := stats.NewRNG(97)
	a := stats.SampleN(stats.Uniform{Lo: -1, Hi: 1}, r, n)
	b := stats.SampleN(stats.Uniform{Lo: -1, Hi: 1}, r, n)
	plan, err := PlanHet(pl, n)
	if err != nil {
		t.Fatal(err)
	}

	into, chunk := matmul.New(n, n), matmul.New(n, n)
	for _, c := range plan.Chunks {
		matmul.OuterInto(into, a, b, c.RowLo, c.RowHi, c.ColLo, c.ColHi)
		FillChunk(chunk, a[c.RowLo:c.RowHi], b[c.ColLo:c.ColHi], c)
	}
	got := map[string]*matmul.Matrix{"VectorOuter": matmul.VectorOuter(a, b), "OuterInto": into, "FillChunk": chunk}
	for name, chaos := range map[string]Chaos{"Run": {}, "Run/lease": {SpeculateAfter: 30}} {
		rep, err := Run(plan, a, b, Options{Speeds: pl.Speeds(), WorkPerSecond: 1e12, Chaos: chaos})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = rep.Out
	}
	for name, m := range got {
		for i, av := range a {
			for j, bv := range b {
				if m.At(i, j) != av*bv {
					t.Fatalf("%s: cell (%d,%d) = %g, want %g", name, i, j, m.At(i, j), av*bv)
				}
			}
		}
	}
}

func TestRunHetOwnership(t *testing.T) {
	pl := snappedPlatform(t)
	const n = 96
	r := stats.NewRNG(11)
	a := stats.SampleN(stats.Uniform{Lo: -1, Hi: 1}, r, n)
	b := stats.SampleN(stats.Uniform{Lo: -1, Hi: 1}, r, n)
	plan, err := PlanHet(pl, n)
	if err != nil {
		t.Fatal(err)
	}
	rep := runPlan(t, pl, plan, a, b)
	// Owned chunks must be computed by their owner: worker w's measured
	// cells and data equal its chunk's geometry exactly.
	for i, c := range plan.Chunks {
		if got := rep.PerWorkerCells[i]; got != float64(c.Cells()) {
			t.Errorf("worker %d computed %v cells, owns %d", i, got, c.Cells())
		}
		if got := rep.PerWorkerData[i]; got != float64(c.Data()) {
			t.Errorf("worker %d shipped %v elements, owns %d", i, got, c.Data())
		}
	}
}

// TestRunDemandDrivenFavorsFastWorkers checks the demand process: with an
// 8× speed gap and chunk compute times far above scheduler jitter, the
// fast worker must claim clearly more of the ownerless pool.
func TestRunDemandDrivenFavorsFastWorkers(t *testing.T) {
	pl, err := platform.FromSpeeds([]float64{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	const n = 128
	r := stats.NewRNG(3)
	a := stats.SampleN(stats.Uniform{Lo: -1, Hi: 1}, r, n)
	b := stats.SampleN(stats.Uniform{Lo: -1, Hi: 1}, r, n)
	chunks, err := GridChunks(n, 8)
	if err != nil {
		t.Fatal(err)
	}
	plan := &StrategyPlan{Strategy: "hom", N: n, Chunks: chunks, Grid: 8, K: 1,
		Predicted: float64(2 * n * 8)}
	rep, err := Run(plan, a, b, Options{Speeds: pl.Speeds(), WorkPerSecond: 2e5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PerWorkerCells[1] < 2*rep.PerWorkerCells[0] {
		t.Errorf("8×-faster worker computed %v cells vs %v — demand process not speed-sensitive",
			rep.PerWorkerCells[1], rep.PerWorkerCells[0])
	}
	if vs := trace.Check(rep.Trace, rep.Expect(0.01)); len(vs) != 0 {
		t.Errorf("trace violations: %v", vs)
	}
}

func TestRunValidation(t *testing.T) {
	chunks, err := GridChunks(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	plan := &StrategyPlan{Strategy: "hom", N: 8, Chunks: chunks, Grid: 2, Predicted: 32}
	a := make([]float64, 8)
	b := make([]float64, 8)
	if _, err := Run(plan, a[:4], b, Options{Speeds: []float64{1}}); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := Run(plan, a, b, Options{}); err == nil {
		t.Error("no speeds should fail")
	}
	if _, err := Run(plan, a, b, Options{Speeds: []float64{1, -2}}); err == nil {
		t.Error("negative speed should fail")
	}
	short := &StrategyPlan{Strategy: "hom", N: 8, Chunks: chunks[:3], Grid: 2}
	if _, err := Run(short, a, b, Options{Speeds: []float64{1}}); err == nil {
		t.Error("non-tiling chunk set should fail")
	}
	if _, err := GridChunks(8, 9); err == nil {
		t.Error("grid > n should fail")
	}
	if _, err := GridChunks(0, 1); err == nil {
		t.Error("empty domain should fail")
	}
}

func TestWorkQueueStealingAndOwnership(t *testing.T) {
	chunks := []Chunk{
		{Task: 0, RowHi: 1, ColHi: 1, Owner: -1},
		{Task: 1, RowHi: 1, ColHi: 1, Owner: -1},
		{Task: 2, RowHi: 1, ColHi: 1, Owner: 1},
		{Task: 3, RowHi: 1, ColHi: 1, Owner: -1},
	}
	q := newWorkQueue(chunks, 2, 2)
	// Worker 1 sees its owned chunk first.
	c, ok := q.pop(1)
	if !ok || c.Task != 2 {
		t.Fatalf("worker 1 popped %v, want owned task 2", c)
	}
	// Worker 0 drains the shared pool entirely — stealing across shards.
	seen := map[int]bool{}
	for {
		c, ok := q.pop(0)
		if !ok {
			break
		}
		if c.Owner == 1 {
			t.Fatalf("worker 0 stole owned chunk %d", c.Task)
		}
		seen[c.Task] = true
	}
	if len(seen) != 3 {
		t.Fatalf("worker 0 drained %d shared chunks, want 3", len(seen))
	}
}

func TestTokenBucketRate(t *testing.T) {
	start := time.Now()
	tb := newTokenBucket(1e6, 1)
	tb.acquire(5e4) // 50 ms of work at 1e6 tokens/s
	if elapsed := time.Since(start); elapsed < 45*time.Millisecond {
		t.Errorf("bucket admitted 50ms of work in %v", elapsed)
	}
}
