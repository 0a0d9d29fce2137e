package faults

import (
	"math"
	"testing"
)

func TestReplanAfterSingleCrash(t *testing.T) {
	p := testPlatform(t, 4, 3, 2, 1)
	sc := Scenario{Events: []Event{{Kind: Crash, Worker: 3, Time: 10}}}
	rep, err := ReplanAfter(p, 100, sc, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Survivors != 3 {
		t.Errorf("survivors = %d, want 3", rep.Survivors)
	}
	if rep.Time != 10 {
		t.Errorf("replan time = %v, want 10", rep.Time)
	}
	// Comm_hom/k over the survivors can only add volume over the idealized
	// bound 2N·√(Σ sᵢ/s₁) over the survivors; the k-refinement pays about
	// a factor k of extra replication (the paper's no-free-lunch price for
	// the ≤1% imbalance), never more than k + 1.
	if rep.HomKBoundRatio < 1 {
		t.Errorf("HomK/SurvivorCommHom = %v, want ≥ 1", rep.HomKBoundRatio)
	}
	if rep.HomKBoundRatio > float64(rep.K)+1 {
		t.Errorf("HomK/SurvivorCommHom = %v, far above the k=%d refinement price", rep.HomKBoundRatio, rep.K)
	}
	// The survivor lower bound can never exceed the survivor Comm_hom.
	if rep.SurvivorLB > rep.SurvivorCommHom+1e-9 {
		t.Errorf("survivor LB %v above survivor Comm_hom %v", rep.SurvivorLB, rep.SurvivorCommHom)
	}
	if rep.K < 1 || rep.Blocks < rep.Survivors {
		t.Errorf("implausible layout: k=%d blocks=%d", rep.K, rep.Blocks)
	}
	if rep.HetVolume <= 0 {
		t.Errorf("het volume = %v", rep.HetVolume)
	}
	if rep.ExtraRatio != rep.HomKVolume/rep.FaultFreeCommHom {
		t.Errorf("extra ratio inconsistent: %v", rep.ExtraRatio)
	}
	if math.Abs(rep.ExtraVolume-(rep.HomKVolume-rep.FaultFreeCommHom)) > 1e-9 {
		t.Errorf("extra volume inconsistent: %v", rep.ExtraVolume)
	}
}

func TestReplanHomogeneousSurvivors(t *testing.T) {
	// On a homogeneous platform, killing workers shrinks Σ sᵢ/s₁ from p to
	// p−k, so the survivor Comm_hom is strictly below the fault-free one —
	// replication cost per worker is unchanged but fewer workers replicate.
	p := testPlatform(t, 1, 1, 1, 1, 1)
	sc := Scenario{Events: []Event{
		{Kind: Crash, Worker: 0, Time: 1},
		{Kind: Crash, Worker: 4, Time: 2},
	}}
	rep, err := ReplanAfter(p, 50, sc, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Survivors != 3 {
		t.Errorf("survivors = %d, want 3", rep.Survivors)
	}
	if rep.Time != 2 {
		t.Errorf("replan at %v, want last crash time 2", rep.Time)
	}
	wantFree := 2 * 50.0 * math.Sqrt(5)
	if math.Abs(rep.FaultFreeCommHom-wantFree) > 1e-9 {
		t.Errorf("fault-free Comm_hom = %v, want %v", rep.FaultFreeCommHom, wantFree)
	}
	wantSurv := 2 * 50.0 * math.Sqrt(3)
	if math.Abs(rep.SurvivorCommHom-wantSurv) > 1e-9 {
		t.Errorf("survivor Comm_hom = %v, want %v", rep.SurvivorCommHom, wantSurv)
	}
	if rep.SurvivorCommHom >= rep.FaultFreeCommHom {
		t.Error("homogeneous survivors should need less ideal volume than the full platform")
	}
}

func TestReplanTransientWorkersStillCount(t *testing.T) {
	// A transient outage that ends before the replan instant leaves the
	// worker in the survivor set.
	p := testPlatform(t, 2, 2, 2)
	tab, err := Scenario{Events: []Event{
		{Kind: Transient, Worker: 1, Time: 1, Until: 3},
		{Kind: Crash, Worker: 2, Time: 5},
	}}.Compile(p.P())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Replan(p, 64, tab, 5, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Survivors != 2 {
		t.Errorf("survivors = %d, want 2 (transient worker recovered)", rep.Survivors)
	}
}

func TestReplanErrors(t *testing.T) {
	p := testPlatform(t, 1, 1)
	if _, err := ReplanAfter(p, 10, Scenario{}, 0.01); err == nil {
		t.Error("no-crash scenario should refuse to re-plan")
	}
	if _, err := ReplanAfter(p, 10, Scenario{Events: []Event{
		{Kind: Transient, Worker: 0, Time: 1, Until: 2},
	}}, 0.01); err == nil {
		t.Error("transient-only scenario should refuse to re-plan")
	}
	sc := Scenario{Events: []Event{{Kind: Crash, Worker: 0, Time: 1}}}
	if _, err := ReplanAfter(p, -5, sc, 0.01); err == nil {
		t.Error("negative domain size accepted")
	}
	allDead := Scenario{Events: []Event{
		{Kind: Crash, Worker: 0, Time: 1},
		{Kind: Crash, Worker: 1, Time: 2},
	}}
	if _, err := ReplanAfter(p, 10, allDead, 0.01); err == nil {
		t.Error("replanning with zero survivors should error")
	}
}
