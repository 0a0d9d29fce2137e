package core

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"nlfl/internal/matmul"
	"nlfl/internal/partition"
)

// ErrDegenerateRect marks a plan rectangle that rounds to an empty
// integer-grid rectangle at the requested problem size: the worker holds a
// positive share of the computation but would silently execute nothing.
// Returned (wrapped in a *DegenerateRectError) instead of dropping the
// work on the floor; retry with a larger N or fewer workers.
var ErrDegenerateRect = errors.New("core: plan rectangle rounds to zero cells")

// DegenerateRectError reports which worker's rectangle collapsed and on
// what integer grid. It wraps ErrDegenerateRect, so
// errors.Is(err, ErrDegenerateRect) selects it.
type DegenerateRectError struct {
	// Worker is the plan index of the collapsed assignment.
	Worker int
	// Rect is the unit-square rectangle that collapsed.
	Rect partition.Rect
	// N is the integer grid side the plan was executed on.
	N int
}

// Error implements error.
func (e *DegenerateRectError) Error() string {
	return fmt.Sprintf("core: worker %d's rectangle %v rounds to zero cells on the %d-grid (share too small for this N)",
		e.Worker, e.Rect, e.N)
}

// Unwrap ties the typed error to the ErrDegenerateRect sentinel.
func (e *DegenerateRectError) Unwrap() error { return ErrDegenerateRect }

// IntRect is a plan rectangle snapped to the integer grid: row range
// [RowLo,RowHi) over a̅, column range [ColLo,ColHi) over b̅.
type IntRect struct {
	RowLo, RowHi, ColLo, ColHi int
}

// Cells returns the number of output cells the rectangle covers.
func (r IntRect) Cells() int { return (r.RowHi - r.RowLo) * (r.ColHi - r.ColLo) }

// Data returns the number of input vector elements the rectangle needs —
// its row span plus its column span.
func (r IntRect) Data() int { return (r.RowHi - r.RowLo) + (r.ColHi - r.ColLo) }

// SnapRect rounds a unit-square rectangle onto the n×n integer grid.
// Because shared boundaries round to the same grid line, snapping every
// rectangle of a partition tiles the integer domain exactly.
func SnapRect(r partition.Rect, n int) IntRect {
	fn := float64(n)
	ir := IntRect{
		RowLo: int(math.Round(r.Y * fn)),
		RowHi: int(math.Round((r.Y + r.H) * fn)),
		ColLo: int(math.Round(r.X * fn)),
		ColHi: int(math.Round((r.X + r.W) * fn)),
	}
	ir.RowHi = min(ir.RowHi, n)
	ir.ColHi = min(ir.ColHi, n)
	ir.RowLo = max(ir.RowLo, 0)
	ir.ColLo = max(ir.ColLo, 0)
	return ir
}

// SnapPlan snaps every rectangle of the plan onto the n×n grid, returning
// a *DegenerateRectError for the first positive-area rectangle that
// collapses to zero cells (a worker with a real share but no work).
func SnapPlan(plan *Plan, n int) ([]IntRect, error) {
	rects := make([]IntRect, len(plan.Workers))
	for i := range plan.Workers {
		w := plan.Workers[i]
		ir := SnapRect(w.Rect, n)
		if w.Rect.Area() > 0 && ir.Cells() == 0 {
			return nil, &DegenerateRectError{Worker: w.Worker, Rect: w.Rect, N: n}
		}
		rects[i] = ir
	}
	return rects, nil
}

// ExecuteOuterProduct actually computes a̅ᵀ×b̅ following the plan: one
// goroutine per worker fills exactly the cells of its rectangle through
// matmul.OuterInto, reading only the a- and b-intervals the plan charges
// it for. It returns the full product and the per-worker
// element reads (which must match the plan's DataVolume accounting up to
// integer-grid rounding) — the end-to-end anchor tying the communication
// model to real computation. A plan rectangle that rounds to zero cells
// despite a positive share is rejected with a *DegenerateRectError rather
// than silently doing no work.
func ExecuteOuterProduct(plan *Plan, a, b []float64) (*matmul.Matrix, []int, error) {
	n := len(a)
	if len(b) != n {
		return nil, nil, fmt.Errorf("core: vector lengths %d and %d differ", n, len(b))
	}
	if n == 0 {
		return nil, nil, fmt.Errorf("core: empty vectors")
	}
	rects, err := SnapPlan(plan, n)
	if err != nil {
		return nil, nil, err
	}
	out := matmul.New(n, n)
	reads := make([]int, len(plan.Workers))
	var wg sync.WaitGroup
	for idx, r := range rects {
		reads[idx] = r.Data()
		wg.Add(1)
		go func(r IntRect) {
			defer wg.Done()
			matmul.OuterInto(out, a, b, r.RowLo, r.RowHi, r.ColLo, r.ColHi)
		}(r)
	}
	wg.Wait()
	return out, reads, nil
}
