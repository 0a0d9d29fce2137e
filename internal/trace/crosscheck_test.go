package trace_test

// Cross-checks: measured traffic in the simulators must reproduce the
// paper's closed-form communication volumes, and a deliberately broken
// executor must be caught by the oracle.

import (
	"math"
	"testing"

	"nlfl/internal/dessim"
	"nlfl/internal/faults"
	"nlfl/internal/outer"
	"nlfl/internal/platform"
	"nlfl/internal/stats"
	"nlfl/internal/trace"
)

// TestCrossCheckCommhomHomogeneous: on a homogeneous platform, handing
// each of the p workers one Comm_hom block (side D = N/√p, data 2N/√p,
// area N²/p) through the demand-driven master must ship exactly
// Comm_hom = 2N·√(Σsᵢ/s₁) = 2N√p — the Section 4.1.1 closed form — within
// 1e-9 relative.
func TestCrossCheckCommhomHomogeneous(t *testing.T) {
	const n = 1000.0
	for _, p := range []int{2, 4, 9, 16} {
		pl, err := platform.Homogeneous(p, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		blockData := 2 * n / math.Sqrt(float64(p))
		blockArea := n * n / float64(p)
		tasks := make([]dessim.Task, p)
		for i := range tasks {
			tasks[i] = dessim.Task{Data: blockData, Work: blockArea}
		}
		res, err := faults.RunResilientDemandDriven(pl, tasks, faults.Scenario{}, faults.ResilientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		commHom := outer.Commhom(pl, n).Volume
		if want := 2 * n * math.Sqrt(float64(p)); !within(commHom, want, 1e-9) {
			t.Fatalf("p=%d: Commhom %v ≠ 2N√p = %v", p, commHom, want)
		}
		if got := res.Trace.CommVolume(); !within(got, commHom, 1e-9) {
			t.Errorf("p=%d: traced volume %v ≠ Comm_hom %v", p, got, commHom)
		}
		// The oracle states the same facts declaratively — and adds the
		// homogeneous balance guarantee (identical blocks, identical
		// workers ⇒ imbalance ≈ 0, far under the paper's 1% target).
		vs := trace.Check(res.Trace, &trace.Expect{
			HasWork:         true,
			TotalWork:       n * n,
			ProcessedWork:   n * n,
			HasComm:         true,
			ShippedData:     commHom,
			Bound:           commHom,
			BoundKind:       trace.BoundExact,
			BoundName:       "Comm_hom",
			ImbalanceTarget: 0.01,
		})
		if len(vs) != 0 {
			t.Errorf("p=%d: %v", p, trace.Must(vs))
		}
	}
}

// TestCrossCheckCommhomK: replay the Comm_hom/k plan (Section 4.3) on the
// star simulator. The traced volume must equal the plan's Volume within
// 1e-9 relative and the measured compute-time imbalance must respect the
// plan's own ≤1% promise.
func TestCrossCheckCommhomK(t *testing.T) {
	const n = 1000.0
	const eps = 0.01
	for seed := int64(1); seed <= 5; seed++ {
		pl, err := platform.Generate(8, platform.ProfileUniform.Distribution(0), stats.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		r, err := outer.CommhomK(pl, n, eps, 0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Reconstruct the physical schedule: counts·blocks of identical
		// squares, side D/k ⇒ data 2√x₁·N/k, area x₁N²/k².
		x1 := 1.0
		for _, x := range pl.NormalizedSpeeds() {
			if x < x1 {
				x1 = x
			}
		}
		k := float64(r.K)
		blockData := 2 * math.Sqrt(x1) * n / k
		blockArea := x1 * n * n / (k * k)
		var chunks []dessim.Chunk
		for w, per := range r.PerWorker {
			count := int(math.Round(per / blockData))
			for c := 0; c < count; c++ {
				chunks = append(chunks, dessim.Chunk{Worker: w, Data: blockData, Work: blockArea})
			}
		}
		tr, err := dessim.RunSingleRound(pl, chunks, dessim.ParallelLinks)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := tr.CommVolume(); !within(got, r.Volume, 1e-9) {
			t.Errorf("seed %d: traced volume %v ≠ plan volume %v", seed, got, r.Volume)
		}
		if got := tr.Imbalance(); got > eps*(1+1e-9) {
			t.Errorf("seed %d: measured imbalance %v breaks the plan's ≤%v promise", seed, got, eps)
		}
		vs := trace.Check(tr, &trace.Expect{
			HasComm:         true,
			ShippedData:     r.Volume,
			Bound:           r.Volume,
			BoundKind:       trace.BoundExact,
			BoundName:       "Comm_hom/k",
			ImbalanceTarget: eps,
		})
		if len(vs) != 0 {
			t.Errorf("seed %d: %v", seed, trace.Must(vs))
		}
		// The plan can never beat the Section 4.1.1 lower bound.
		if lb := outer.LowerBound(pl, n); r.Volume < lb*(1-1e-9) {
			t.Errorf("seed %d: plan volume %v below LB_comm %v", seed, r.Volume, lb)
		}
	}
}

// brokenSchedule is the deliberately buggy executor of the acceptance
// criterion: it books two compute spans on the same worker at overlapping
// times (a real scheduler bug class: forgetting that a CPU is an
// exclusive resource when re-queueing).
func brokenSchedule(p int) *trace.Timeline {
	tl := trace.New(p)
	tl.Add(0, trace.Span{Kind: trace.Comm, Start: 0, End: 1, Data: 1, Task: 0})
	tl.Add(0, trace.Span{Kind: trace.Compute, Start: 1, End: 4, Work: 3, Task: 0})
	// Bug: task 1's compute starts while task 0 still owns the CPU.
	tl.Add(0, trace.Span{Kind: trace.Comm, Start: 1, End: 2, Data: 1, Task: 1})
	tl.Add(0, trace.Span{Kind: trace.Compute, Start: 2, End: 5, Work: 3, Task: 1})
	return tl
}

func TestBrokenExecutorCaught(t *testing.T) {
	vs := trace.Check(brokenSchedule(2), nil)
	if len(vs) == 0 {
		t.Fatal("overlapping compute bookings not caught")
	}
	found := false
	for _, v := range vs {
		if v.Kind == trace.OverlapCompute && v.Worker == 0 {
			found = true
		}
		if v.Kind == trace.OverlapComm {
			t.Errorf("comm spans [0,1] and [1,2] do not overlap: %v", v)
		}
	}
	if !found {
		t.Fatalf("want an OverlapCompute violation on worker 0, got %v", vs)
	}
	if err := trace.Must(vs); err == nil {
		t.Fatal("Must should surface the violation as an error")
	}
}

// within reports a ≈ b within relative tolerance tol.
func within(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(math.Abs(a)+math.Abs(b)+1)
}
