package partition

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"nlfl/internal/stats"
)

// fullScanPeriSum is PeriSum as it was before its scan was pruned: a
// stable sort on the area alone, and every j < i priced for every i, ties
// kept on the first (smallest) j.
func fullScanPeriSum(areas []float64) (*Partition, error) {
	norm, err := Normalize(areas)
	if err != nil {
		return nil, err
	}
	sorted := make([]sortedIndex, len(norm))
	for i, a := range norm {
		sorted[i] = sortedIndex{area: a, idx: i}
	}
	slices.SortStableFunc(sorted, func(a, b sortedIndex) int { return cmp.Compare(b.area, a.area) })
	p := len(sorted)
	prefix := make([]float64, p+1)
	for i, s := range sorted {
		prefix[i+1] = prefix[i] + s.area
	}
	const inf = math.MaxFloat64
	f := make([]float64, p+1)
	choice := make([]int, p+1)
	for i := 1; i <= p; i++ {
		f[i] = inf
		for j := 0; j < i; j++ {
			colArea := prefix[i] - prefix[j]
			cost := f[j] + float64(i-j)*colArea + 1
			if cost < f[i] {
				f[i] = cost
				choice[i] = j
			}
		}
	}
	var rev []int
	for i := p; i > 0; i = choice[i] {
		rev = append(rev, i)
	}
	breaks := []int{0}
	for k := len(rev) - 1; k >= 0; k-- {
		breaks = append(breaks, rev[k])
	}
	return buildColumns(norm, sorted, breaks), nil
}

// speedClasses draws each area from {1, 2, 4}: many exact ties, in runs
// the sort must order by index.
type speedClasses struct{}

func (speedClasses) Sample(r *stats.RNG) float64 { return float64(int(1) << r.Intn(3)) }
func (speedClasses) Mean() float64               { return 7.0 / 3 }
func (speedClasses) String() string              { return "classes{1,2,4}" }

// PeriSum's pruned downward scan and unstable total-order sort return the
// partition of the full scan and the stable sort, rectangle for rectangle
// and bit for bit, on 10⁴ random instances from five distributions (exact
// ties, speed classes, the paper's two and a spread of σ = 20, which
// reaches past 10¹⁵).
func TestPeriSumMatchesFullScan(t *testing.T) {
	dists := []stats.Distribution{
		stats.Constant{Value: 1},
		speedClasses{},
		stats.Uniform{Lo: 1, Hi: 100},
		stats.LogNormal{Mu: 0, Sigma: 1},
		stats.LogNormal{Mu: 0, Sigma: 20},
	}
	r := stats.NewRNG(43)
	const perDist = 2000
	for _, d := range dists {
		for n := range perDist {
			p := 1 + n%120
			areas := stats.SampleN(d, r, p)
			got, err := PeriSum(areas)
			if err != nil {
				t.Fatalf("%v p=%d: %v", d, p, err)
			}
			want, err := fullScanPeriSum(areas)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v p=%d areas %v:\n got %v\nwant %v", d, p, areas, got.Rects, want.Rects)
			}
		}
	}
}

// skewedAreas is the family of ROADMAP item 18: one area a = 1−b−n·t,
// one small area b and n near-zero areas t.
func skewedAreas(n int, b, t float64) []float64 {
	areas := make([]float64, 0, n+2)
	areas = append(areas, 1-b-float64(n)*t, b)
	for range n {
		areas = append(areas, t)
	}
	return areas
}

// The stated bound Ĉ ≤ 1 + (5/4)·LB ≤ (7/4)·LB does not hold for areas
// spread over twelve decades and more: every column layout of the family
// costs about 4, while LB = 2(√a + √b + n√t) falls towards 2. PeriSum
// returns a valid partition of the column-based optimum, and Ĉ/LB
// exceeds 7/4. These spreads are also where the pruned scan stops
// latest, so the partition must equal the full scan's.
func TestPeriSumSkewedCounterexamples(t *testing.T) {
	for _, c := range []struct {
		n     int
		b, t  float64
		ratio string
	}{
		{48, 0.0223, 1e-12, "1.757"},
		{100, 0.0101, 1e-12, "1.826"},
		{1000, 0.001, 1e-15, "1.940"},
	} {
		areas := skewedAreas(c.n, c.b, c.t)
		part, err := PeriSum(areas)
		if err != nil {
			t.Fatal(err)
		}
		if err := part.Validate(); err != nil {
			t.Fatalf("n=%d: %v", c.n, err)
		}
		want, err := fullScanPeriSum(areas)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(part.Rects, want.Rects) {
			t.Errorf("n=%d: PeriSum differs from the full scan", c.n)
		}
		norm, err := Normalize(areas)
		if err != nil {
			t.Fatal(err)
		}
		cost, lb := part.SumHalfPerimeters(), LowerBound(norm)
		if got := fmt.Sprintf("%.3f", cost); got != "4.000" {
			t.Errorf("n=%d: Ĉ = %s, want 4.000", c.n, got)
		}
		if got := fmt.Sprintf("%.3f", cost/lb); got != c.ratio {
			t.Errorf("n=%d: Ĉ/LB = %s, want %s", c.n, got, c.ratio)
		}
		if !(cost > 1+1.25*lb && cost > 1.75*lb) {
			t.Errorf("n=%d: Ĉ = %v is inside 1+(5/4)·LB = %v and (7/4)·LB = %v", c.n, cost, 1+1.25*lb, 1.75*lb)
		}
	}
}

// figure4Areas calls visit with the speeds of Figure 4's platforms for
// the given distribution: p = 10, 20, …, 100, 100 platforms each, every
// platform drawn from its own generator split from seed 42.
func figure4Areas(d stats.Distribution, visit func(areas []float64)) {
	root := stats.NewRNG(42)
	for p := 10; p <= 100; p += 10 {
		for range 100 {
			visit(stats.SampleN(d, root.Split(), p))
		}
	}
}

// The pruned scan prices at least 1.4× fewer candidate columns than the
// full scan's p(p+1)/2 on Figure 4's 1 000 uniform and 1 000 log-normal
// platforms.
func TestPeriSumScanSteps(t *testing.T) {
	for _, d := range []stats.Distribution{stats.Uniform{Lo: 1, Hi: 100}, stats.LogNormal{Mu: 0, Sigma: 1}} {
		full, priced := 0, 0
		figure4Areas(d, func(areas []float64) {
			norm, err := Normalize(areas)
			if err != nil {
				t.Fatal(err)
			}
			p := len(norm)
			prefix, f, choice := make([]float64, p+1), make([]float64, p+1), make([]int, p+1)
			for i, s := range sortAreasDescending(norm) {
				prefix[i+1] = prefix[i] + s.area
			}
			full += p * (p + 1) / 2
			priced += columnDP(prefix, f, choice)
		})
		ratio := float64(full) / float64(priced)
		t.Logf("%v: %d of %d candidates priced, %.2f× fewer", d, priced, full, ratio)
		if ratio < 1.4 {
			t.Errorf("%v: the scan prices %.2f× fewer candidates than the full scan, want ≥ 1.4×", d, ratio)
		}
	}
}

// worstCase is the outcome of a seeded search for the areas that
// maximize PeriSum's Ĉ/LB at one p.
type worstCase struct {
	areas []float64
	ratio float64
	// failSpread[k] is the smallest area spread (largest over smallest)
	// of any evaluated instance above bound k — 1 + (5/4)·LB for k = 0,
	// (7/4)·LB for k = 1 — or +Inf when none was.
	failSpread [2]float64
}

// searchWorstCase hill-climbs Ĉ/LB over log-areas at p from restarts
// seeded by r: each step moves one log-area by a normal step, keeps the
// move when the ratio does not fall, and clamps every log-area to
// [−maxLog, 0], so spreads stay within e^maxLog. Every evaluated instance
// must cost at least LB.
func searchWorstCase(t *testing.T, r *stats.RNG, p, restarts, steps int, maxLog float64) worstCase {
	t.Helper()
	w := worstCase{failSpread: [2]float64{math.Inf(1), math.Inf(1)}}
	ratioOf := func(logs []float64) float64 {
		areas := make([]float64, p)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, x := range logs {
			areas[i] = math.Exp(x)
			lo, hi = min(lo, areas[i]), max(hi, areas[i])
		}
		part, err := PeriSum(areas)
		if err != nil {
			t.Fatal(err)
		}
		norm, err := Normalize(areas)
		if err != nil {
			t.Fatal(err)
		}
		cost, lb := part.SumHalfPerimeters(), LowerBound(norm)
		if cost < lb*(1-1e-12) {
			t.Fatalf("p=%d areas %v: Ĉ = %v below LB = %v", p, areas, cost, lb)
		}
		for k, bound := range []float64{1 + 1.25*lb, 1.75 * lb} {
			if cost > bound {
				w.failSpread[k] = min(w.failSpread[k], hi/lo)
			}
		}
		if ratio := cost / lb; ratio > w.ratio {
			w.ratio, w.areas = ratio, areas
		}
		return cost / lb
	}
	logs := make([]float64, p)
	for range restarts {
		spread := maxLog * r.Float64()
		for i := range logs {
			logs[i] = -spread * r.Float64()
		}
		cur := ratioOf(logs)
		for range steps {
			i := r.Intn(p)
			old := logs[i]
			switch r.Intn(3) {
			case 0: // a local step
				logs[i] = min(0, max(-maxLog, old+2*r.NormFloat64()))
			case 1: // a jump anywhere in range
				logs[i] = -maxLog * r.Float64()
			default: // join another area's level
				logs[i] = logs[r.Intn(p)]
			}
			if next := ratioOf(logs); next >= cur {
				cur = next
			} else {
				logs[i] = old
			}
		}
	}
	return w
}

// A seeded worst-case search for PeriSum's Ĉ/LB over spreads up to 10¹⁵.
// For p ≤ 8 the worst instance found is checked against the guillotine
// optimum: LB ≤ OPT ≤ Ĉ. For p up to 100 it logs the worst Ĉ/LB and the
// smallest area spread at which 1 + (5/4)·LB and (7/4)·LB first failed;
// those bounds are observed on the paper's distributions, not guaranteed
// (TestPeriSumSkewedCounterexamples). The search must find both failures
// (so it still reaches the skewed instances), and none at a spread of
// 10⁶ or less: the paper's distributions spread far less.
func TestPeriSumWorstCaseSearch(t *testing.T) {
	r := stats.NewRNG(18)
	maxLog := 15 * math.Ln10
	failSpread := [2]float64{math.Inf(1), math.Inf(1)}
	for _, p := range []int{2, 3, 4, 5, 6, 7, 8, 10, 20, 50, 100} {
		w := searchWorstCase(t, r, p, 6, 2000, maxLog)
		part, err := PeriSum(w.areas)
		if err != nil {
			t.Fatal(err)
		}
		if err := part.Validate(); err != nil {
			t.Fatalf("p=%d worst areas %v: %v", p, w.areas, err)
		}
		msg := fmt.Sprintf("p=%3d: worst Ĉ/LB %.4f; smallest spread above 1+(5/4)·LB %.3g, above (7/4)·LB %.3g",
			p, w.ratio, w.failSpread[0], w.failSpread[1])
		if p <= MaxGuillotineP {
			opt, err := GuillotineOptimal(w.areas)
			if err != nil {
				t.Fatal(err)
			}
			norm, _ := Normalize(w.areas)
			cost, lb := part.SumHalfPerimeters(), LowerBound(norm)
			if opt < lb*(1-1e-12) || opt > cost*(1+1e-12) {
				t.Errorf("p=%d worst areas %v: guillotine optimum %v outside [LB, Ĉ] = [%v, %v]", p, w.areas, opt, lb, cost)
			}
			msg += fmt.Sprintf("; Ĉ/OPT %.4f", cost/opt)
		}
		t.Log(msg)
		failSpread[0], failSpread[1] = min(failSpread[0], w.failSpread[0]), min(failSpread[1], w.failSpread[1])
	}
	for k, bound := range []string{"1+(5/4)·LB", "(7/4)·LB"} {
		if !(failSpread[k] > 1e6 && failSpread[k] <= 1e15) {
			t.Errorf("the smallest spread above %s is %.3g, want one found in (10⁶, 10¹⁵]", bound, failSpread[k])
		}
	}
}
