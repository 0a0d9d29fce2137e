package partition

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"nlfl/internal/stats"
)

func TestNormalize(t *testing.T) {
	got, err := Normalize([]float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0.25 || got[1] != 0.75 {
		t.Errorf("Normalize = %v", got)
	}
	for _, bad := range [][]float64{nil, {}, {1, 0}, {1, -2}, {math.NaN()}, {math.Inf(1)}} {
		if _, err := Normalize(bad); err == nil {
			t.Errorf("Normalize(%v) should fail", bad)
		}
	}
	// Input must not be mutated.
	in := []float64{2, 2}
	Normalize(in)
	if in[0] != 2 {
		t.Error("Normalize mutated its input")
	}
}

func TestLowerBound(t *testing.T) {
	// Four equal areas: LB = 2·4·√(1/4) = 4.
	if got := LowerBound([]float64{0.25, 0.25, 0.25, 0.25}); math.Abs(got-4) > 1e-12 {
		t.Errorf("LowerBound = %v, want 4", got)
	}
	// Single unit area: LB = 2 (the unit square itself).
	if got := LowerBound([]float64{1}); math.Abs(got-2) > 1e-12 {
		t.Errorf("LowerBound = %v, want 2", got)
	}
}

func TestRectBasics(t *testing.T) {
	r := Rect{X: 0, Y: 0, W: 0.5, H: 0.25, Index: 3}
	if r.Area() != 0.125 {
		t.Errorf("Area = %v", r.Area())
	}
	if r.HalfPerimeter() != 0.75 {
		t.Errorf("HalfPerimeter = %v", r.HalfPerimeter())
	}
	if r.String() == "" {
		t.Error("empty String")
	}
}

func TestPeriSumSingleArea(t *testing.T) {
	p, err := PeriSum([]float64{42}) // normalization makes it 1
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.SumHalfPerimeters()-2) > 1e-9 {
		t.Errorf("single area Ĉ = %v, want 2", p.SumHalfPerimeters())
	}
}

func TestPeriSumPerfectSquares(t *testing.T) {
	// p = k² equal areas tile as a k×k grid of squares: Ĉ = LB = 2√p.
	for _, k := range []int{2, 3, 5, 8} {
		p := k * k
		areas := make([]float64, p)
		for i := range areas {
			areas[i] = 1
		}
		part, err := PeriSum(areas)
		if err != nil {
			t.Fatal(err)
		}
		if err := part.Validate(); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		want := 2 * math.Sqrt(float64(p))
		if got := part.SumHalfPerimeters(); math.Abs(got-want) > 1e-9 {
			t.Errorf("p=%d: Ĉ = %v, want %v (perfect grid)", p, got, want)
		}
	}
}

func TestPeriSumKnownSmallInstance(t *testing.T) {
	// Two areas {1/2, 1/2}: only column layouts exist; best is two stacked
	// 1×(1/2) rectangles in a single column (cost 2·1+1=3) or two side-by-
	// side (1/2)×1 columns (cost 2·(1/2·1+1)=3). Either way Ĉ = 3.
	p, err := PeriSum([]float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.SumHalfPerimeters()-3) > 1e-9 {
		t.Errorf("Ĉ = %v, want 3", p.SumHalfPerimeters())
	}
	if err := p.Validate(); err != nil {
		t.Error(err)
	}
}

// pareto is the Pareto (power-law) distribution with scale xm and shape
// alpha, drawn by inverse CDF: xm / U^(1/α), with U in (0, 1].
type pareto struct {
	xm, alpha float64
}

func (p pareto) Sample(r *stats.RNG) float64 { return p.xm / math.Pow(1-r.Float64(), 1/p.alpha) }
func (p pareto) Mean() float64               { return p.alpha * p.xm / (p.alpha - 1) }
func (p pareto) String() string              { return fmt.Sprintf("pareto(%g,%g)", p.xm, p.alpha) }

func TestPeriSumRespectsGuarantee(t *testing.T) {
	r := stats.NewRNG(7)
	dists := []stats.Distribution{
		stats.Constant{Value: 1},
		stats.Uniform{Lo: 1, Hi: 100},
		stats.LogNormal{Mu: 0, Sigma: 1},
		pareto{xm: 1, alpha: 1.2},
	}
	for _, d := range dists {
		for _, p := range []int{2, 5, 10, 37, 100} {
			areas := stats.SampleN(d, r, p)
			part, err := PeriSum(areas)
			if err != nil {
				t.Fatal(err)
			}
			if err := part.Validate(); err != nil {
				t.Fatalf("%v p=%d: %v", d, p, err)
			}
			norm, _ := Normalize(areas)
			lb := LowerBound(norm)
			c := part.SumHalfPerimeters()
			if c < lb-1e-9 {
				t.Errorf("%v p=%d: Ĉ=%v below LB=%v", d, p, c, lb)
			}
			if c > 1+1.25*lb+1e-9 {
				t.Errorf("%v p=%d: Ĉ=%v violates 1+(5/4)LB=%v", d, p, c, 1+1.25*lb)
			}
			if c > 1.75*lb+1e-9 {
				t.Errorf("%v p=%d: Ĉ=%v violates (7/4)LB=%v", d, p, c, 1.75*lb)
			}
		}
	}
}

func TestPeriSumBeatsSqrtHeuristic(t *testing.T) {
	r := stats.NewRNG(8)
	worseSomewhere := false
	for trial := 0; trial < 20; trial++ {
		areas := stats.SampleN(stats.LogNormal{Mu: 0, Sigma: 1.5}, r, 40)
		dp, err := PeriSum(areas)
		if err != nil {
			t.Fatal(err)
		}
		greedy, err := SqrtHeuristic(areas)
		if err != nil {
			t.Fatal(err)
		}
		if err := greedy.Validate(); err != nil {
			t.Fatal(err)
		}
		if dp.SumHalfPerimeters() > greedy.SumHalfPerimeters()+1e-9 {
			t.Errorf("DP (%v) worse than √p heuristic (%v)",
				dp.SumHalfPerimeters(), greedy.SumHalfPerimeters())
		}
		if dp.SumHalfPerimeters() < greedy.SumHalfPerimeters()-1e-6 {
			worseSomewhere = true
		}
	}
	if !worseSomewhere {
		t.Error("DP never strictly beat the heuristic on heterogeneous areas — suspicious")
	}
}

func TestSqrtHeuristicMatchesDPOnHomogeneous(t *testing.T) {
	areas := make([]float64, 16)
	for i := range areas {
		areas[i] = 1
	}
	dp, _ := PeriSum(areas)
	sq, _ := SqrtHeuristic(areas)
	if math.Abs(dp.SumHalfPerimeters()-sq.SumHalfPerimeters()) > 1e-9 {
		t.Errorf("homogeneous: DP %v vs heuristic %v", dp.SumHalfPerimeters(), sq.SumHalfPerimeters())
	}
}

func TestHalfPerimeterOf(t *testing.T) {
	part, err := PeriSum([]float64{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Each prescribed-area index is served by exactly one rectangle, whose
	// W+H is that index's half-perimeter (what outer.Commhet charges).
	hp := []float64{math.NaN(), math.NaN()}
	for _, r := range part.Rects {
		if r.Index < 0 || r.Index >= len(hp) {
			t.Fatalf("rectangle serves unknown index %d", r.Index)
		}
		if !math.IsNaN(hp[r.Index]) {
			t.Fatalf("index %d served twice", r.Index)
		}
		hp[r.Index] = r.HalfPerimeter()
	}
	if math.IsNaN(hp[0]) || math.IsNaN(hp[1]) {
		t.Fatal("missing half-perimeters")
	}
	total := part.SumHalfPerimeters()
	if math.Abs(hp[0]+hp[1]-total) > 1e-9 {
		t.Errorf("per-index half-perimeters %v+%v don't sum to %v", hp[0], hp[1], total)
	}
}

func TestValidateCatchesDefects(t *testing.T) {
	good, _ := PeriSum([]float64{1, 1, 1})
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	// Wrong count.
	bad := &Partition{Areas: []float64{0.5, 0.5}, Rects: good.Rects[:1]}
	if bad.Validate() == nil {
		t.Error("mismatched count should fail")
	}
	// Overlap.
	overlap := &Partition{
		Areas: []float64{0.5, 0.5},
		Rects: []Rect{
			{X: 0, Y: 0, W: 1, H: 0.5, Index: 0},
			{X: 0, Y: 0.25, W: 1, H: 0.5, Index: 1},
		},
	}
	if overlap.Validate() == nil {
		t.Error("overlapping rects should fail")
	}
	// Escaping the square.
	escape := &Partition{
		Areas: []float64{0.5, 0.5},
		Rects: []Rect{
			{X: 0, Y: 0, W: 1, H: 0.5, Index: 0},
			{X: 0.75, Y: 0.5, W: 1, H: 0.5, Index: 1},
		},
	}
	if escape.Validate() == nil {
		t.Error("escaping rect should fail")
	}
	// Wrong prescribed area.
	wrongArea := &Partition{
		Areas: []float64{0.9, 0.1},
		Rects: []Rect{
			{X: 0, Y: 0, W: 1, H: 0.5, Index: 0},
			{X: 0, Y: 0.5, W: 1, H: 0.5, Index: 1},
		},
	}
	if wrongArea.Validate() == nil {
		t.Error("wrong area should fail")
	}
	// Duplicate index.
	dup := &Partition{
		Areas: []float64{0.5, 0.5},
		Rects: []Rect{
			{X: 0, Y: 0, W: 1, H: 0.5, Index: 0},
			{X: 0, Y: 0.5, W: 1, H: 0.5, Index: 0},
		},
	}
	if dup.Validate() == nil {
		t.Error("duplicate index should fail")
	}
}

// Property: PeriSum produces a valid tiling within the published guarantee
// for arbitrary positive areas.
func TestPeriSumProperty(t *testing.T) {
	f := func(seed int64, np uint8) bool {
		p := int(np%64) + 1
		r := stats.NewRNG(seed)
		areas := make([]float64, p)
		for i := range areas {
			areas[i] = 0.01 + 10*r.Float64()
		}
		part, err := PeriSum(areas)
		if err != nil {
			return false
		}
		if part.Validate() != nil {
			return false
		}
		norm, _ := Normalize(areas)
		lb := LowerBound(norm)
		c := part.SumHalfPerimeters()
		return c >= lb-1e-9 && c <= 1+1.25*lb+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// sortAreasDescending gives the order a stable comparison sort on the
// area alone gives, on areas that tie, that agree in all but their last
// bits, zeros and subnormals, and random areas, at sizes from 1 to 300.
func TestSortAreasDescendingMatchesComparisonSort(t *testing.T) {
	r := stats.NewRNG(11)
	for trial := 0; trial < 3000; trial++ {
		n := 1 + r.Intn(300)
		base := r.Float64()
		areas := make([]float64, n)
		for i := range areas {
			switch r.Intn(5) {
			case 0:
				areas[i] = base
			case 1:
				areas[i] = math.Float64frombits(math.Float64bits(base) ^ uint64(r.Intn(1<<10)))
			case 2:
				areas[i] = []float64{0, 5e-324, 1e-310, 1}[r.Intn(4)]
			default:
				areas[i] = r.ExpFloat64()
			}
		}
		want := make([]sortedIndex, n)
		for i, a := range areas {
			want[i] = sortedIndex{area: a, idx: i}
		}
		slices.SortStableFunc(want, func(a, b sortedIndex) int { return cmp.Compare(b.area, a.area) })
		if got := sortAreasDescending(areas); !slices.Equal(got, want) {
			t.Fatalf("sortAreasDescending(%v) = %v, want %v", areas, got, want)
		}
	}
}

// Equal areas keep their input order (ties break by index), for a run of
// equal areas, interleaved classes and an all-equal set.
func TestSortAreasDescendingTiesByIndex(t *testing.T) {
	equal := make([]float64, 100)
	wantEqual := make([]int, 100)
	for i := range equal {
		equal[i], wantEqual[i] = 0.01, i
	}
	for _, c := range []struct {
		areas []float64
		want  []int
	}{
		{[]float64{0.2, 0.3, 0.2, 0.3, 0.2}, []int{1, 3, 0, 2, 4}},
		{[]float64{0.1, 0.4, 0.1, 0.1, 0.3}, []int{1, 4, 0, 2, 3}},
		{equal, wantEqual},
	} {
		got := make([]int, 0, len(c.areas))
		for _, s := range sortAreasDescending(c.areas) {
			got = append(got, s.idx)
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("sortAreasDescending(%v) order = %v, want %v", c.areas, got, c.want)
		}
	}
}
