package matmul

import (
	"math"
	"testing"

	"nlfl/internal/stats"
)

// TestTiledMatchesNaiveProperty is the kernel-equivalence property test:
// across randomized rectangular shapes — deliberately including sides that
// are not multiples of the micro-tile, sides of 1, and sides larger than
// one column slab — the tiled and parallel kernels must reproduce the naive
// kernel element-wise within 1e-12.
func TestTiledMatchesNaiveProperty(t *testing.T) {
	r := stats.NewRNG(2024)
	dim := func() int { return 1 + int(r.Float64()*300) }
	for trial := 0; trial < 25; trial++ {
		m, k, n := dim(), dim(), dim()
		a := Random(m, k, int64(trial*3+1))
		b := Random(k, n, int64(trial*3+2))
		want, err := Naive(a, b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Tiled(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !want.Equal(got, 1e-12) {
			t.Fatalf("trial %d (%dx%d · %dx%d): tiled kernel diverges from naive", trial, m, k, n, n)
		}
		workers := 1 + int(r.Float64()*7)
		par, err := ParallelTiled(a, b, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !want.Equal(par, 1e-12) {
			t.Fatalf("trial %d: parallel tiled kernel (%d workers) diverges from naive", trial, workers)
		}
	}
}

// TestOuterIntoMatchesVectorOuter covers the rectangle fill the plan
// executors run: random sub-rectangles of a random outer product must
// match the reference kernel exactly on the rectangle and leave the rest
// of C untouched.
func TestOuterIntoMatchesVectorOuter(t *testing.T) {
	r := stats.NewRNG(99)
	for trial := 0; trial < 30; trial++ {
		n := 2 + int(r.Float64()*400)
		a := stats.SampleN(stats.Uniform{Lo: -1, Hi: 1}, r, n)
		b := stats.SampleN(stats.Uniform{Lo: -1, Hi: 1}, r, n)
		want := VectorOuter(a, b)
		rowLo := int(r.Float64() * float64(n))
		rowHi := rowLo + 1 + int(r.Float64()*float64(n-rowLo))
		colLo := int(r.Float64() * float64(n))
		colHi := colLo + 1 + int(r.Float64()*float64(n-colLo))
		if rowHi > n {
			rowHi = n
		}
		if colHi > n {
			colHi = n
		}
		got := New(n, n)
		OuterInto(got, a, b, rowLo, rowHi, colLo, colHi)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				inside := i >= rowLo && i < rowHi && j >= colLo && j < colHi
				if inside && got.At(i, j) != want.At(i, j) {
					t.Fatalf("trial %d n=%d: cell (%d,%d) = %g, want %g", trial, n, i, j, got.At(i, j), want.At(i, j))
				}
				if !inside && got.At(i, j) != 0 {
					t.Fatalf("trial %d n=%d: cell (%d,%d) outside rect written (%g)", trial, n, i, j, got.At(i, j))
				}
			}
		}
	}
}

// TestOuterFillProperty is the property test of the one rank-1 fill loop:
// random ragged rectangles (sides 1…300, 1×k and k×1 forced in) written
// at a random offset and stride inside a NaN-filled buffer. Every cell
// inside must == a[i]·b[j] and every cell outside must still be NaN.
func TestOuterFillProperty(t *testing.T) {
	r := stats.NewRNG(4242)
	upTo := func(n int) int { return int(r.Float64() * float64(n)) }
	for trial := 0; trial < 60; trial++ {
		rows, cols := 1+upTo(300), 1+upTo(300)
		switch trial % 6 {
		case 0:
			rows = 1
		case 1:
			cols = 1
		}
		off, stride := upTo(50), cols+upTo(40)
		a := stats.SampleN(stats.Uniform{Lo: -1, Hi: 1}, r, rows)
		b := stats.SampleN(stats.Uniform{Lo: -1, Hi: 1}, r, cols)
		buf := make([]float64, off+(rows-1)*stride+cols+upTo(50))
		for i := range buf {
			buf[i] = math.NaN()
		}
		OuterFill(buf[off:], stride, a, b)
		for idx, got := range buf {
			i, j := (idx-off)/stride, (idx-off)%stride
			if idx >= off && i < rows && j < cols {
				if got != a[i]*b[j] {
					t.Fatalf("trial %d (%dx%d off %d stride %d): cell (%d,%d) = %g, want %g",
						trial, rows, cols, off, stride, i, j, got, a[i]*b[j])
				}
			} else if !math.IsNaN(got) {
				t.Fatalf("trial %d (%dx%d off %d stride %d): index %d outside the rectangle written (%g)",
					trial, rows, cols, off, stride, idx, got)
			}
		}
	}
}

// TestOuterIntoEmptyAndAllocFree pins the two edges of the rectangle
// entry point: an empty rectangle is a no-op wherever it sits (a
// zero-share worker's rectangle can snap to the far corner, past the last
// valid row offset), and a fill allocates nothing.
func TestOuterIntoEmptyAndAllocFree(t *testing.T) {
	const n = 8
	a, b := make([]float64, n), make([]float64, n)
	for i := range a {
		a[i], b[i] = float64(i+1), float64(i+2)
	}
	c := New(n, n)
	OuterInto(c, a, b, n, n, 3, n)
	OuterInto(c, a, b, 2, n, n, n)
	for i, v := range c.Data {
		if v != 0 {
			t.Fatalf("empty rectangle wrote cell %d (%g)", i, v)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { OuterInto(c, a, b, 1, n, 2, n) }); allocs != 0 {
		t.Fatalf("OuterInto allocates %.1f objects per fill, want 0", allocs)
	}
}

func TestTiledShapeValidation(t *testing.T) {
	a, b := Random(3, 4, 1), Random(5, 3, 2)
	if _, err := Tiled(a, b); err == nil {
		t.Error("shape mismatch should fail")
	}
	if _, err := ParallelTiled(a, b, 2); err == nil {
		t.Error("shape mismatch should fail")
	}
	if _, err := ParallelTiled(Random(3, 3, 1), Random(3, 3, 2), 0); err == nil {
		t.Error("zero workers should fail")
	}
}
