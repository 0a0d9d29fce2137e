package partition

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Rect is an axis-aligned rectangle inside the unit square.
type Rect struct {
	// X, Y locate the lower-left corner; W, H are width and height.
	X, Y, W, H float64
	// Index is the prescribed-area index this rectangle serves.
	Index int
}

// Area returns W·H.
func (r Rect) Area() float64 { return r.W * r.H }

// HalfPerimeter returns W + H — the communication cost of the processor
// assigned this rectangle (it needs W·N elements of one vector and H·N of
// the other, per Section 4.1.2).
func (r Rect) HalfPerimeter() float64 { return r.W + r.H }

// String renders the rectangle compactly.
func (r Rect) String() string {
	return fmt.Sprintf("rect[%d]{x=%.4g y=%.4g w=%.4g h=%.4g}", r.Index, r.X, r.Y, r.W, r.H)
}

// Partition is a set of rectangles intended to tile the unit square, one
// per prescribed area.
type Partition struct {
	Rects []Rect
	// Areas echoes the prescribed (normalized) areas, indexed like the
	// original request.
	Areas []float64
}

// SumHalfPerimeters returns Ĉ = Σ (wᵢ + hᵢ), the PERI-SUM objective.
func (p *Partition) SumHalfPerimeters() float64 {
	s := 0.0
	for _, r := range p.Rects {
		s += r.HalfPerimeter()
	}
	return s
}

const geomTol = 1e-9

// Validate checks that the partition is an exact tiling: every prescribed
// area is served by exactly one rectangle of matching area, rectangles lie
// inside the unit square, do not overlap pairwise, and their areas sum
// to 1. (Equal total area + no overlap + containment ⇒ exact cover.)
func (p *Partition) Validate() error {
	if len(p.Rects) != len(p.Areas) {
		return fmt.Errorf("partition: %d rects for %d areas", len(p.Rects), len(p.Areas))
	}
	seen := make([]bool, len(p.Areas))
	total := 0.0
	for _, r := range p.Rects {
		if r.Index < 0 || r.Index >= len(p.Areas) {
			return fmt.Errorf("partition: %v has out-of-range index", r)
		}
		if seen[r.Index] {
			return fmt.Errorf("partition: area %d served twice", r.Index)
		}
		seen[r.Index] = true
		if r.W <= 0 || r.H <= 0 {
			return fmt.Errorf("partition: %v is degenerate", r)
		}
		if r.X < -geomTol || r.Y < -geomTol || r.X+r.W > 1+geomTol || r.Y+r.H > 1+geomTol {
			return fmt.Errorf("partition: %v escapes the unit square", r)
		}
		if math.Abs(r.Area()-p.Areas[r.Index]) > 1e-6*(1+p.Areas[r.Index]) {
			return fmt.Errorf("partition: %v has area %v, prescribed %v", r, r.Area(), p.Areas[r.Index])
		}
		total += r.Area()
	}
	if math.Abs(total-1) > 1e-6 {
		return fmt.Errorf("partition: areas sum to %v, want 1", total)
	}
	// Sweep in X order: overlaps requires b.X < a.X+a.W-geomTol, so once
	// a later rectangle starts at or past that edge, every one after it
	// does too and none of them can overlap a. The verdict is the
	// all-pairs one without its p² comparisons, in any X order, so Rects
	// that are already in X order (PeriSum's are) are swept in place.
	byX := p.Rects
	byXOrder := func(a, b Rect) int { return cmp.Compare(a.X, b.X) }
	if !slices.IsSortedFunc(byX, byXOrder) {
		byX = slices.Clone(byX)
		slices.SortFunc(byX, byXOrder)
	}
	for i, a := range byX {
		for _, b := range byX[i+1:] {
			if !(b.X < a.X+a.W-geomTol) {
				break
			}
			if overlaps(a, b) {
				return fmt.Errorf("partition: %v overlaps %v", a, b)
			}
		}
	}
	return nil
}

// overlaps reports whether two rectangles share interior area (touching
// edges do not count).
func overlaps(a, b Rect) bool {
	return a.X < b.X+b.W-geomTol && b.X < a.X+a.W-geomTol &&
		a.Y < b.Y+b.H-geomTol && b.Y < a.Y+a.H-geomTol
}

// LowerBound returns LB = 2Σ√aᵢ for normalized areas: each rectangle's
// half-perimeter is at least twice the square root of its area (squares
// are optimal), so no partition can communicate less.
func LowerBound(areas []float64) float64 {
	s := 0.0
	for _, a := range areas {
		s += math.Sqrt(a)
	}
	return 2 * s
}

// Normalize scales positive areas to sum to 1; it errors on empty input or
// non-positive entries.
func Normalize(areas []float64) ([]float64, error) {
	if len(areas) == 0 {
		return nil, errors.New("partition: no areas")
	}
	sum := 0.0
	for i, a := range areas {
		if a <= 0 || math.IsNaN(a) || math.IsInf(a, 0) {
			return nil, fmt.Errorf("partition: area %d is %v", i, a)
		}
		sum += a
	}
	out := make([]float64, len(areas))
	for i, a := range areas {
		out[i] = a / sum
	}
	return out, nil
}

// sortedIndex pairs an area with its original position.
type sortedIndex struct {
	area float64
	idx  int
}

// sortAreasDescending returns (area, original index) pairs sorted by
// non-increasing area, breaking ties by index for determinism. The order
// is total (no two pairs share an index, and Normalize admits no NaN), so
// the unstable sort gives the one permutation a stable sort on the area
// alone would.
func sortAreasDescending(areas []float64) []sortedIndex {
	out := make([]sortedIndex, len(areas))
	for i, a := range areas {
		out[i] = sortedIndex{area: a, idx: i}
	}
	slices.SortFunc(out, func(a, b sortedIndex) int {
		switch {
		case a.area > b.area:
			return -1
		case a.area < b.area:
			return 1
		}
		return a.idx - b.idx
	})
	return out
}
