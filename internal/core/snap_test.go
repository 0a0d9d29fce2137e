package core

import (
	"errors"
	"testing"

	"nlfl/internal/platform"
	"nlfl/internal/stats"
)

// TestSnapPlanDegenerateRect is the regression test for the silent-no-work
// bug: a worker whose positive-area rectangle rounds to zero cells on the
// integer grid must produce a typed error, not an incomplete tiling.
func TestSnapPlanDegenerateRect(t *testing.T) {
	// A 10⁶× speed gap squeezes the slow worker's rectangle to ~1e-6 of
	// the unit square; on a 4-grid it rounds to zero width.
	pl, err := platform.FromSpeeds([]float64{1, 1e6})
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	plan, err := PlanOuterProduct(pl, n)
	if err != nil {
		t.Fatal(err)
	}
	_, err = SnapPlan(plan, n)
	if err == nil {
		t.Fatal("degenerate plan rectangle should be rejected")
	}
	if !errors.Is(err, ErrDegenerateRect) {
		t.Fatalf("error %v does not wrap ErrDegenerateRect", err)
	}
	var dre *DegenerateRectError
	if !errors.As(err, &dre) {
		t.Fatalf("error %v is not a *DegenerateRectError", err)
	}
	if dre.N != n {
		t.Errorf("reported grid %d, want %d", dre.N, n)
	}
	if dre.Rect.Area() <= 0 {
		t.Errorf("reported rect %v should have positive area", dre.Rect)
	}
}

func TestSnapPlanTilesDomain(t *testing.T) {
	r := stats.NewRNG(7)
	pl, err := platform.Generate(5, stats.Uniform{Lo: 1, Hi: 4}, r)
	if err != nil {
		t.Fatal(err)
	}
	const n = 97 // deliberately prime: no rectangle lands on a friendly grid
	plan, err := PlanOuterProduct(pl, n)
	if err != nil {
		t.Fatal(err)
	}
	rects, err := SnapPlan(plan, n)
	if err != nil {
		t.Fatal(err)
	}
	covered := make([]bool, n*n)
	for _, ir := range rects {
		for i := ir.RowLo; i < ir.RowHi; i++ {
			for j := ir.ColLo; j < ir.ColHi; j++ {
				if covered[i*n+j] {
					t.Fatalf("cell (%d,%d) covered twice", i, j)
				}
				covered[i*n+j] = true
			}
		}
	}
	for idx, c := range covered {
		if !c {
			t.Fatalf("cell (%d,%d) never covered", idx/n, idx%n)
		}
	}
}
