// Regression tests for the planner/throttle bug sweep: each test fails
// on the pre-fix code and pins the repaired behavior.
package runtime

import (
	"math"
	"testing"
	"time"
	"unsafe"

	"nlfl/internal/platform"
	"nlfl/internal/stats"
	"nlfl/internal/trace"
)

// TestPlanGridClampSmallN: on a platform heterogeneous enough that
// round(√(Σsᵢ/s₁)) exceeds n, PlanHom/PlanHomK used to hand GridChunks a
// grid larger than the domain and error out. The grid must clamp to n
// (one chunk per cell) and the plan must execute with the realized-grid
// volume 2·N·n.
func TestPlanGridClampSmallN(t *testing.T) {
	pl, err := platform.FromSpeeds([]float64{1, 100}) // √101 ≈ 10 ≫ n
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	r := stats.NewRNG(23)
	a := stats.SampleN(stats.Uniform{Lo: -1, Hi: 1}, r, n)
	b := stats.SampleN(stats.Uniform{Lo: -1, Hi: 1}, r, n)

	hom, err := PlanHom(pl, n)
	if err != nil {
		t.Fatalf("PlanHom errors on small N: %v", err)
	}
	if hom.Grid != n {
		t.Fatalf("hom grid = %d, want clamped to %d", hom.Grid, n)
	}
	if want := float64(2 * n * n); hom.Predicted != want {
		t.Errorf("clamped hom predicts %v, want realized-grid volume %v", hom.Predicted, want)
	}
	homk, err := PlanHomK(pl, n, 0.01, 0)
	if err != nil {
		t.Fatalf("PlanHomK errors on small N: %v", err)
	}
	if homk.Grid != n {
		t.Fatalf("hom/k grid = %d, want clamped to %d", homk.Grid, n)
	}

	for _, plan := range []*StrategyPlan{hom, homk} {
		rep, err := Run(plan, a, b, Options{Speeds: pl.Speeds(), WorkPerSecond: 1e7, VerifyEvery: 1})
		if err != nil {
			t.Fatalf("%s: %v", plan.Strategy, err)
		}
		if rep.DataVolume != plan.Predicted {
			t.Errorf("%s: measured %v ≠ predicted %v", plan.Strategy, rep.DataVolume, plan.Predicted)
		}
		if vs := trace.Check(rep.Trace, rep.Expect(1e-9)); len(vs) != 0 {
			t.Errorf("%s: trace violations: %v", plan.Strategy, vs)
		}
	}
}

// TestPlanHetPredictedMatchesSnapped: the het prediction used to be the
// *continuous* plan's Σ(wᵢ+hᵢ)·N (213.5 elements for speeds {2,3,5} at
// n=61) while the snapped rectangles ship an integer volume (213), so
// the trace oracle's exact bound missed what executes. Predicted must be
// recomputed over the snapped rectangles and match the measured volume
// to float precision.
func TestPlanHetPredictedMatchesSnapped(t *testing.T) {
	pl, err := platform.FromSpeeds([]float64{2, 3, 5})
	if err != nil {
		t.Fatal(err)
	}
	const n = 61
	plan, err := PlanHet(pl, n)
	if err != nil {
		t.Fatal(err)
	}
	snapped := 0.0
	for _, c := range plan.Chunks {
		snapped += float64(c.Data())
	}
	if plan.Predicted != snapped {
		t.Fatalf("Predicted %v ≠ snapped volume %v", plan.Predicted, snapped)
	}
	if plan.Predicted != math.Trunc(plan.Predicted) {
		t.Errorf("snapped volume %v is not an integer element count", plan.Predicted)
	}

	r := stats.NewRNG(29)
	a := stats.SampleN(stats.Uniform{Lo: -1, Hi: 1}, r, n)
	b := stats.SampleN(stats.Uniform{Lo: -1, Hi: 1}, r, n)
	rep, err := Run(plan, a, b, Options{Speeds: pl.Speeds(), WorkPerSecond: 1e7, VerifyEvery: 13})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DataVolume != rep.Predicted {
		t.Errorf("measured %v ≠ predicted %v — bound does not match what executed", rep.DataVolume, rep.Predicted)
	}
	// The exact bound now holds at float precision, not the old 5% slack.
	if vs := trace.Check(rep.Trace, rep.Expect(1e-12)); len(vs) != 0 {
		t.Errorf("trace violations at tight tolerance: %v", vs)
	}
}

// TestTokenBucketClampsOversleepCredit: the post-sleep refill used to
// skip the burst clamp, so every oversleep banked credit above the
// configured burst and the worker burst ahead of its speed. After any
// acquire the bucket may never hold more than its burst.
func TestTokenBucketClampsOversleepCredit(t *testing.T) {
	tb := newTokenBucket(1e9, 10) // any oversleep ≥ 10 ns banks > burst pre-fix
	for i := 0; i < 3; i++ {
		tb.acquire(1e7) // 10 ms of work forces the sleep branch
		if tb.tokens > tb.burst+1e-6 {
			t.Fatalf("acquire %d banked %v tokens, burst cap is %v — oversleep credit not clamped",
				i, tb.tokens, tb.burst)
		}
	}
}

// TestTokenBucketLongRunRate: over many acquires the bucket must never
// run faster than its configured rate (initial burst credit aside).
func TestTokenBucketLongRunRate(t *testing.T) {
	const (
		rate  = 1e8
		burst = 1e5
		per   = 5e5
		calls = 20
	)
	tb := newTokenBucket(rate, burst)
	start := time.Now()
	for i := 0; i < calls; i++ {
		tb.acquire(per)
	}
	elapsed := time.Since(start).Seconds()
	// calls·per tokens minus the initial burst credit at `rate`/s.
	if minElapsed := (calls*per - burst) / rate; elapsed < minElapsed {
		t.Errorf("%v tokens drained in %vs, floor is %vs — bucket runs ahead of its rate",
			calls*per, elapsed, minElapsed)
	}
}

// TestRunRejectsOverlapGapPlan: Σcells == n² used to be the only
// coverage check, so a chunk set with an overlap and an equal-area gap
// validated and silently computed cells twice while skipping others. Run
// must reject any non-tiling plan.
func TestRunRejectsOverlapGapPlan(t *testing.T) {
	const n = 4
	a := make([]float64, n)
	b := make([]float64, n)
	// 8 + 4 + 4 = 16 = n², but rows [2,4) cover column 1–2 twice and
	// leave columns 3–4 uncovered.
	bad := &StrategyPlan{Strategy: "hom", N: n, Grid: 2, Predicted: 16, Chunks: []Chunk{
		{Task: 0, RowLo: 0, RowHi: 2, ColLo: 0, ColHi: 4, Owner: -1},
		{Task: 1, RowLo: 2, RowHi: 4, ColLo: 0, ColHi: 2, Owner: -1},
		{Task: 2, RowLo: 2, RowHi: 4, ColLo: 1, ColHi: 3, Owner: -1},
	}}
	if _, err := Run(bad, a, b, Options{Speeds: []float64{1}}); err == nil {
		t.Error("overlap+gap plan with Σcells == n² must be rejected")
	}
}

// TestCheckTilingPaths exercises both the bitmap and the row-band
// implementations on the same good and bad tilings.
func TestCheckTilingPaths(t *testing.T) {
	const n = 6
	good, err := GridChunks(n, 3)
	if err != nil {
		t.Fatal(err)
	}
	overlapGap := []Chunk{
		{Task: 0, RowLo: 0, RowHi: 3, ColLo: 0, ColHi: 6},
		{Task: 1, RowLo: 3, RowHi: 6, ColLo: 0, ColHi: 3},
		{Task: 2, RowLo: 3, RowHi: 6, ColLo: 2, ColHi: 5},
	}
	gapOnly := []Chunk{
		{Task: 0, RowLo: 0, RowHi: 3, ColLo: 0, ColHi: 6},
	}
	for name, check := range map[string]func(int, []Chunk) error{
		"bitmap": checkTilingBitmap,
		"bands":  checkTilingBands,
	} {
		if err := check(n, good); err != nil {
			t.Errorf("%s rejects an exact tiling: %v", name, err)
		}
		if err := check(n, overlapGap); err == nil {
			t.Errorf("%s accepts an overlap+gap cover", name)
		}
		if err := check(n, gapOnly); err == nil {
			t.Errorf("%s accepts a partial cover", name)
		}
	}
}

// TestPaddedLayoutsFillLinePairs keeps the padding comments honest. Shards,
// private lanes and chaos ledgers sit in contiguous arrays whose
// neighbouring entries belong to different workers and are written on
// every chunk, so each must span whole 128-byte line pairs or adjacent
// workers false-share. chaosLedger once claimed 128 bytes and was 112.
func TestPaddedLayoutsFillLinePairs(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the padding arithmetic assumes 64-bit words")
	}
	for name, size := range map[string]uintptr{
		"shard":       unsafe.Sizeof(shard{}),
		"privateLane": unsafe.Sizeof(privateLane{}),
		"chaosLedger": unsafe.Sizeof(chaosLedger{}),
	} {
		if size%128 != 0 {
			t.Errorf("%s is %d bytes, not a multiple of 128", name, size)
		}
	}
}
