package partition

import (
	"math"
	"strings"
	"testing"
)

// FuzzPeriSum drives the partitioner with arbitrary area vectors decoded
// from raw bytes: whatever survives Normalize must produce a valid tiling
// within the published guarantee.
func FuzzPeriSum(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4})
	f.Add([]byte{255})
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{200, 1, 1, 1, 200})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 || len(raw) > 64 {
			t.Skip()
		}
		areas := make([]float64, len(raw))
		for i, b := range raw {
			// Spread over five orders of magnitude.
			areas[i] = math.Pow(10, float64(b)/255*5-2)
		}
		part, err := PeriSum(areas)
		if err != nil {
			t.Fatalf("PeriSum rejected positive areas: %v", err)
		}
		if err := part.Validate(); err != nil {
			t.Fatalf("invalid partition for %v: %v", areas, err)
		}
		norm, err := Normalize(areas)
		if err != nil {
			t.Fatal(err)
		}
		lb := LowerBound(norm)
		if c := part.SumHalfPerimeters(); c < lb-1e-9 || c > 1+1.25*lb+1e-9 {
			t.Fatalf("cost %v outside [LB, 1+1.25·LB] = [%v, %v]", c, lb, 1+1.25*lb)
		}
	})
}

// pairwiseOverlap is the all-pairs scan that Validate's X-ordered sweep
// replaced: it reports whether any two rectangles overlap.
func pairwiseOverlap(rects []Rect) bool {
	for i := range rects {
		for j := i + 1; j < len(rects); j++ {
			if overlaps(rects[i], rects[j]) {
				return true
			}
		}
	}
	return false
}

// fuzzPartition decodes raw bytes into a column tiling of the unit square
// (equal-width columns of equal-height rows, so X values repeat down each
// column and edges touch) and then applies area-preserving moves: shifts by
// fractions of a cell and by multiples of geomTol, copying another
// rectangle's X or Y, nesting one rectangle's corner inside another, and
// swapping W and H. The areas stay prescribed and sum to one, so Validate
// mostly gets as far as its overlap check.
func fuzzPartition(raw []byte) *Partition {
	next := func() int {
		if len(raw) == 0 {
			return 0
		}
		b := raw[0]
		raw = raw[1:]
		return int(b)
	}
	part := &Partition{}
	cols := 1 + next()%4
	for c := 0; c < cols; c++ {
		rows := 1 + next()%4
		for r := 0; r < rows; r++ {
			rect := Rect{X: float64(c) / float64(cols), Y: float64(r) / float64(rows),
				W: 1 / float64(cols), H: 1 / float64(rows), Index: len(part.Rects)}
			part.Rects = append(part.Rects, rect)
			part.Areas = append(part.Areas, rect.Area())
		}
	}
	n := len(part.Rects)
	for len(raw) >= 3 {
		r, other, move := &part.Rects[next()%n], part.Rects[next()%n], next()
		switch move % 10 {
		case 0:
			r.X += geomTol
		case 1:
			r.X -= geomTol * 0.999
		case 2:
			r.X += 2 * geomTol
		case 3:
			r.X += r.W / 2
		case 4:
			r.Y -= r.H / 2
		case 5:
			r.X = other.X
		case 6:
			r.Y = other.Y + geomTol
		case 7:
			r.X, r.Y = other.X+other.W/4, other.Y+other.H/4
		case 8:
			r.W, r.H = r.H, r.W
		case 9:
			r.X -= float64(move/10) * geomTol / 8
		}
	}
	return part
}

// FuzzValidateMatchesPairwise checks that Validate's sweep gives the
// all-pairs scan's verdict on overlapping, touching, nested and
// duplicated-X rectangle sets.
func FuzzValidateMatchesPairwise(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{3, 3, 3, 3, 3})
	f.Add([]byte{2, 1, 2, 0, 0, 0, 1, 2, 5})
	f.Add([]byte{3, 3, 0, 2, 1, 4, 7, 2, 9})
	f.Add([]byte{1, 3, 2, 1, 1, 3, 0, 2})
	f.Add([]byte{3, 1, 1, 1, 1, 4, 0, 7, 5, 4, 1})
	f.Add([]byte{2, 2, 2, 0, 2, 8, 3, 0, 250})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 64 {
			t.Skip()
		}
		part := fuzzPartition(raw)
		err := part.Validate()
		if err != nil && !strings.Contains(err.Error(), " overlaps ") {
			return // rejected by a check that precedes, and is shared by, both overlap scans
		}
		if got, want := err != nil, pairwiseOverlap(part.Rects); got != want {
			t.Fatalf("sweep says overlap=%v, all pairs say %v, for %v", got, want, part.Rects)
		}
	})
}
