package matmul

import (
	"math"
	"testing"
	"testing/quick"

	"nlfl/internal/partition"
	"nlfl/internal/stats"
)

func TestKernelAgreement(t *testing.T) {
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {3, 4, 5}, {16, 16, 16}, {33, 17, 21}, {64, 64, 64},
	}
	for _, s := range shapes {
		a := Random(s.m, s.k, 1)
		b := Random(s.k, s.n, 2)
		ref, err := Naive(a, b)
		if err != nil {
			t.Fatal(err)
		}
		par, err := ParallelTiled(a, b, 4)
		if err != nil {
			t.Fatal(err)
		}
		op, err := OuterProduct(a, b)
		if err != nil {
			t.Fatal(err)
		}
		for name, m := range map[string]*Matrix{"parallel": par, "outer": op} {
			if !ref.Equal(m, 1e-9) {
				t.Errorf("%v shape %+v disagrees with naive", name, s)
			}
		}
	}
}

func TestIdentityMultiplication(t *testing.T) {
	a := Random(12, 12, 3)
	id := New(12, 12)
	for i := 0; i < 12; i++ {
		id.Set(i, i, 1)
	}
	c, err := Naive(a, id)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Equal(a, 1e-12) {
		t.Error("A·I != A")
	}
	c2, err := Naive(id, a)
	if err != nil {
		t.Fatal(err)
	}
	if !c2.Equal(a, 1e-12) {
		t.Error("I·A != A")
	}
}

func TestShapeValidation(t *testing.T) {
	a, b := New(2, 3), New(4, 2)
	if _, err := Naive(a, b); err == nil {
		t.Error("mismatched shapes should fail")
	}
	if _, err := ParallelTiled(New(2, 2), New(2, 2), 0); err == nil {
		t.Error("zero workers should fail")
	}
	defer func() {
		if recover() == nil {
			t.Error("New with bad shape should panic")
		}
	}()
	New(0, 3)
}

func TestParallelMoreWorkersThanRows(t *testing.T) {
	a, b := Random(3, 3, 4), Random(3, 3, 5)
	ref, _ := Naive(a, b)
	par, err := ParallelTiled(a, b, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Equal(par, 1e-9) {
		t.Error("excess workers broke the result")
	}
}

func TestVectorOuter(t *testing.T) {
	m := VectorOuter([]float64{1, 2}, []float64{3, 4, 5})
	want := [][]float64{{3, 4, 5}, {6, 8, 10}}
	for i := range want {
		for j := range want[i] {
			if m.At(i, j) != want[i][j] {
				t.Errorf("outer[%d][%d] = %v, want %v", i, j, m.At(i, j), want[i][j])
			}
		}
	}
}

func TestBlockCyclicOwnership(t *testing.T) {
	l, err := NewBlockCyclic(8, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Block (0,0) → proc 0, block (0,1) → proc 1, block (1,0) → proc 2,
	// cycling with period 4 in each dimension.
	cases := []struct{ i, j, want int }{
		{0, 0, 0}, {0, 2, 1}, {2, 0, 2}, {2, 2, 3},
		{4, 4, 0}, {1, 1, 0}, {3, 3, 3}, {0, 4, 0}, {0, 6, 1},
	}
	for _, c := range cases {
		if got := l.OwnerOf(c.i, c.j); got != c.want {
			t.Errorf("OwnerOf(%d,%d) = %d, want %d", c.i, c.j, got, c.want)
		}
	}
	if l.P() != 4 || l.N() != 8 || l.Name() == "" {
		t.Error("metadata wrong")
	}
	if _, err := NewBlockCyclic(0, 2, 2, 2); err == nil {
		t.Error("invalid dims should fail")
	}
}

func TestBlockCyclicCommMatchesClosedForm(t *testing.T) {
	for _, c := range []struct{ n, r, cc, b int }{
		{16, 2, 2, 2}, {24, 2, 3, 4}, {32, 4, 2, 8}, {30, 3, 5, 2},
	} {
		l, err := NewBlockCyclic(c.n, c.r, c.cc, c.b)
		if err != nil {
			t.Fatal(err)
		}
		rep := CommVolume(l)
		want := GridCommClosedForm(c.r, c.cc, c.n)
		if math.Abs(rep.Total-want) > 1e-9 {
			t.Errorf("%v: simulated %v vs closed form %v", l.Name(), rep.Total, want)
		}
		// Cells are dealt evenly when the grid divides the blocks evenly.
		if c.n%(c.b*c.r) == 0 && c.n%(c.b*c.cc) == 0 {
			if e := rep.Imbalance(nil); e != 0 {
				t.Errorf("%v: grid imbalance %v, want 0", l.Name(), e)
			}
		}
	}
}

func TestRectLayoutCommMatchesClosedForm(t *testing.T) {
	r := stats.NewRNG(11)
	for _, p := range []int{2, 5, 9} {
		areas := stats.SampleN(stats.Uniform{Lo: 1, Hi: 5}, r, p)
		part, err := partition.PeriSum(areas)
		if err != nil {
			t.Fatal(err)
		}
		const n = 120
		l, err := NewRectLayout(n, part)
		if err != nil {
			t.Fatal(err)
		}
		rep := CommVolume(l)
		want := RectCommClosedForm(part, n)
		// Integer-grid rounding perturbs effective widths/heights by
		// ≈ 1/n, i.e. O(p·n) elements out of O(n²).
		if math.Abs(rep.Total-want) > 4*float64(p*n) {
			t.Errorf("p=%d: simulated %v vs closed form %v", p, rep.Total, want)
		}
		// Work shares must track prescribed areas within grid rounding.
		for q, cells := range rep.CellsPerProc {
			wantCells := part.Areas[q] * n * n
			if math.Abs(float64(cells)-wantCells) > 4*n {
				t.Errorf("p=%d proc %d: %d cells, want ≈ %v", p, q, cells, wantCells)
			}
		}
	}
}

func TestRectLayoutValidation(t *testing.T) {
	part, _ := partition.PeriSum([]float64{1, 1})
	if _, err := NewRectLayout(0, part); err == nil {
		t.Error("n=0 should fail")
	}
	bad := &partition.Partition{Areas: []float64{1}, Rects: nil}
	if _, err := NewRectLayout(8, bad); err == nil {
		t.Error("invalid partition should fail")
	}
}

func TestHeterogeneousBeatsBlockCyclicOnSkewedSpeeds(t *testing.T) {
	// 4 processors, speeds {1, 1, 1, 13}: block-cyclic can balance load
	// only by over-decomposing, and even then each step broadcasts to the
	// whole grid; the rectangle layout assigns areas ∝ speed directly.
	speeds := []float64{1, 1, 1, 13}
	part, err := partition.PeriSum(speeds)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	rect, err := NewRectLayout(n, part)
	if err != nil {
		t.Fatal(err)
	}
	rectRep := CommVolume(rect)
	grid, err := NewBlockCyclic(n, 2, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	gridRep := CommVolume(grid)
	// The grid ignores speeds: its work imbalance is huge.
	if gi := gridRep.Imbalance(speeds); gi < 5 {
		t.Errorf("grid speed-weighted imbalance = %v, expected large", gi)
	}
	if ri := rectRep.Imbalance(speeds); ri > 0.15 {
		t.Errorf("rect speed-weighted imbalance = %v, want small", ri)
	}
	if rectRep.Total >= gridRep.Total {
		t.Errorf("rect comm %v not below grid comm %v", rectRep.Total, gridRep.Total)
	}
}

func TestCommReportAccounting(t *testing.T) {
	l, _ := NewBlockCyclic(12, 2, 2, 3)
	rep := CommVolume(l)
	sum := 0.0
	for _, v := range rep.PerProc {
		sum += v
	}
	if math.Abs(sum-rep.Total) > 1e-9 {
		t.Errorf("per-proc %v doesn't sum to total %v", sum, rep.Total)
	}
	cells := 0
	for _, c := range rep.CellsPerProc {
		cells += c
	}
	if cells != 12*12 {
		t.Errorf("cells sum to %d, want 144", cells)
	}
}

func TestImbalanceEdgeCases(t *testing.T) {
	rep := CommReport{CellsPerProc: []int{0, 0}}
	if rep.Imbalance(nil) != 0 {
		t.Error("all-idle should be 0")
	}
	rep = CommReport{CellsPerProc: []int{0, 5}}
	if !math.IsInf(rep.Imbalance(nil), 1) {
		t.Error("one idle should be +Inf")
	}
}

// Property: (A·B)·C == A·(B·C) across kernels on small random matrices.
func TestAssociativityProperty(t *testing.T) {
	f := func(seed int64, dims [3]uint8) bool {
		m := int(dims[0]%6) + 1
		k := int(dims[1]%6) + 1
		n := int(dims[2]%6) + 1
		a := Random(m, k, seed)
		b := Random(k, n, seed+1)
		c := Random(n, m, seed+2)
		ab, err := Tiled(a, b)
		if err != nil {
			return false
		}
		abc1, err := Naive(ab, c)
		if err != nil {
			return false
		}
		bc, err := OuterProduct(b, c)
		if err != nil {
			return false
		}
		abc2, err := ParallelTiled(a, bc, 3)
		if err != nil {
			return false
		}
		return abc1.Equal(abc2, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: every cell has exactly one owner and comm accounting is
// internally consistent for random rectangle layouts.
func TestRectLayoutOwnershipProperty(t *testing.T) {
	f := func(seed int64, np uint8) bool {
		p := int(np%8) + 1
		r := stats.NewRNG(seed)
		areas := make([]float64, p)
		for i := range areas {
			areas[i] = 0.2 + 3*r.Float64()
		}
		part, err := partition.PeriSum(areas)
		if err != nil {
			return false
		}
		const n = 20
		l, err := NewRectLayout(n, part)
		if err != nil {
			return false
		}
		counts := make([]int, p)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				q := l.OwnerOf(i, j)
				if q < 0 || q >= p {
					return false
				}
				counts[q]++
			}
		}
		total := 0
		for _, c := range counts {
			total += c
		}
		return total == n*n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
