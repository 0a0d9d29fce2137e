package outer

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"nlfl/internal/partition"
	"nlfl/internal/platform"
	"nlfl/internal/stats"
)

func homPlat(t *testing.T, p int) *platform.Platform {
	t.Helper()
	pl, err := platform.Homogeneous(p, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func speedsPlat(t *testing.T, speeds ...float64) *platform.Platform {
	t.Helper()
	pl, err := platform.FromSpeeds(speeds)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestLowerBoundHomogeneous(t *testing.T) {
	// p equal workers: LB = 2N·p·√(1/p) = 2N√p.
	pl := homPlat(t, 16)
	if got, want := LowerBound(pl, 100), 2.0*100*4; math.Abs(got-want) > 1e-9 {
		t.Errorf("LB = %v, want %v", got, want)
	}
}

func TestCommhomClosedForm(t *testing.T) {
	// Speeds {1, 3}: Comm_hom = 2N√(Σs/s₁) = 2N·2 = 4N.
	pl := speedsPlat(t, 1, 3)
	const n = 50
	r := Commhom(pl, n)
	if math.Abs(r.Volume-4*n) > 1e-9 {
		t.Errorf("volume = %v, want %v", r.Volume, 4.0*n)
	}
	// x₁ = 1/4 ⇒ 4 blocks; slow worker 1, fast worker 3.
	if r.Blocks != 4 {
		t.Errorf("blocks = %d, want 4", r.Blocks)
	}
	if math.Abs(r.PerWorker[0]-n) > 1e-9 || math.Abs(r.PerWorker[1]-3*n) > 1e-9 {
		t.Errorf("per-worker = %v, want [N, 3N]", r.PerWorker)
	}
	// Ratio against LB = 2N(√(1/4)+√(3/4)) = N(1+√3).
	wantRatio := 4 * n / (n * (1 + math.Sqrt(3)))
	if math.Abs(r.Ratio-wantRatio) > 1e-9 {
		t.Errorf("ratio = %v, want %v", r.Ratio, wantRatio)
	}
}

func TestCommhomHomogeneousIsOptimal(t *testing.T) {
	pl := homPlat(t, 25)
	r := Commhom(pl, 10)
	if math.Abs(r.Ratio-1) > 1e-9 {
		t.Errorf("homogeneous Comm_hom ratio = %v, want 1", r.Ratio)
	}
}

// bruteDemandCounts replays the demand-driven process one block at a time.
func bruteDemandCounts(speeds []float64, b int) []int {
	counts := make([]int, len(speeds))
	for blk := 0; blk < b; blk++ {
		best, bestTime := -1, math.Inf(1)
		for i, s := range speeds {
			claim := float64(counts[i]) / s
			if claim < bestTime {
				best, bestTime = i, claim
			}
		}
		counts[best]++
	}
	return counts
}

func TestDemandCountsMatchesBruteForce(t *testing.T) {
	r := stats.NewRNG(1)
	for trial := 0; trial < 50; trial++ {
		p := 1 + r.Intn(12)
		speeds := make([]float64, p)
		for i := range speeds {
			speeds[i] = 0.5 + 10*r.Float64()
		}
		b := r.Intn(200)
		got := demandCounts(nil, speeds, b)
		want := bruteDemandCounts(speeds, b)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d (p=%d b=%d): counts %v, brute force %v", trial, p, b, got, want)
			}
		}
	}
}

func TestDemandCountsHomogeneousTies(t *testing.T) {
	speeds := []float64{1, 1, 1, 1}
	got := demandCounts(nil, speeds, 6)
	want := []int{2, 2, 1, 1} // ties go to the lowest index
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("counts = %v, want %v", got, want)
		}
	}
}

func TestDemandCountsEdgeCases(t *testing.T) {
	if got := demandCounts(nil, []float64{1, 2}, 0); got[0] != 0 || got[1] != 0 {
		t.Errorf("b=0 counts = %v", got)
	}
	got := demandCounts(nil, []float64{5}, 7)
	if got[0] != 7 {
		t.Errorf("single worker counts = %v", got)
	}
	// Σsᵢ overflows to +Inf, so the bracket [(b−p)/S, b/S] is [0, 0] and
	// must widen before it holds the third claim.
	huge := []float64{1e308, 1e308}
	if got, want := demandCounts(nil, huge, 3), bruteDemandCounts(huge, 3); !slices.Equal(got, want) {
		t.Errorf("overflowing speeds: counts %v, brute force %v", got, want)
	}
}

// Ties and scale: equal speeds with b not a multiple of p (every claim
// time is shared p ways), a few speed classes, and p up to 100 with b up
// to 10⁴, where the bisection often lands on exactly b claims and stops.
func TestDemandCountsTiesMatchBruteForce(t *testing.T) {
	r := stats.NewRNG(5)
	type tc struct {
		speeds []float64
		b      int
	}
	var cases []tc
	for _, p := range []int{3, 7, 64, 100} {
		equal := make([]float64, p)
		classes := make([]float64, p)
		for i := range equal {
			equal[i] = 2.5
			classes[i] = []float64{1, 1.5, 2, 4}[r.Intn(4)]
		}
		for _, b := range []int{1, p - 1, p + 1, 3*p + 2, 1001, 9999, 10000} {
			cases = append(cases, tc{equal, b}, tc{classes, b})
		}
	}
	for _, c := range cases {
		got, want := demandCounts(nil, c.speeds, c.b), bruteDemandCounts(c.speeds, c.b)
		if !slices.Equal(got, want) {
			t.Fatalf("p=%d b=%d speeds %v: counts %v, brute force %v", len(c.speeds), c.b, c.speeds, got, want)
		}
	}
}

// Speeds that are not positive and finite used to hang the bracketing
// loop; they now panic with a named message.
func TestDemandCountsRejectsBadSpeeds(t *testing.T) {
	for _, speeds := range [][]float64{{0, 0}, {1, math.NaN()}, {math.Inf(1)}, {-1, 2}, {}} {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Errorf("demandCounts(%v, 10) did not panic", speeds)
				} else if msg := fmt.Sprint(r); !strings.Contains(msg, "demandCounts") {
					t.Errorf("demandCounts(%v, 10) panicked with %q", speeds, msg)
				}
			}()
			demandCounts(nil, speeds, 10)
		}()
	}
}

func TestImbalanceOf(t *testing.T) {
	if e := imbalanceOf([]float64{1, 1}, []int{2, 1}); math.Abs(e-1) > 1e-12 {
		t.Errorf("e = %v, want 1", e)
	}
	if e := imbalanceOf([]float64{1, 2}, []int{1, 2}); e != 0 {
		t.Errorf("proportional counts should balance exactly, e = %v", e)
	}
	if e := imbalanceOf([]float64{1, 1}, []int{0, 5}); !math.IsInf(e, 1) {
		t.Errorf("idle worker should give +Inf, e = %v", e)
	}
	if e := imbalanceOf([]float64{1, 1}, []int{0, 0}); e != 0 {
		t.Errorf("no blocks at all should give 0, e = %v", e)
	}
}

func TestCommhomKHomogeneousPerfectSquare(t *testing.T) {
	// p homogeneous workers: x₁ = 1/p ⇒ p blocks, one each, e = 0, k = 1.
	pl := homPlat(t, 10)
	r, err := CommhomK(pl, 100, 0.01, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.K != 1 || r.Imbalance != 0 {
		t.Errorf("homogeneous: k=%d e=%v, want k=1 e=0", r.K, r.Imbalance)
	}
	if math.Abs(r.Ratio-1) > 1e-9 {
		t.Errorf("homogeneous ratio = %v, want 1", r.Ratio)
	}
}

func TestCommhomKMeetsImbalanceTarget(t *testing.T) {
	r := stats.NewRNG(2)
	for _, p := range []int{10, 40, 100} {
		pl, err := platform.Generate(p, stats.Uniform{Lo: 1, Hi: 100}, r)
		if err != nil {
			t.Fatal(err)
		}
		res, err := CommhomK(pl, 1000, 0.01, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Imbalance > 0.01 {
			t.Errorf("p=%d: imbalance %v above 1%%", p, res.Imbalance)
		}
		if res.K < 1 {
			t.Errorf("p=%d: k=%d", p, res.K)
		}
		// Heterogeneous platforms need refinement: ratio well above het's.
		het, err := Commhet(pl, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if res.Ratio < het.Ratio {
			t.Errorf("p=%d: hom/k ratio %v below het ratio %v", p, res.Ratio, het.Ratio)
		}
	}
}

func TestCommhomKVolumeAccounting(t *testing.T) {
	pl := speedsPlat(t, 1, 2, 4)
	const n = 100
	res, err := CommhomK(pl, n, 0.01, 0)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range res.PerWorker {
		sum += v
	}
	if math.Abs(sum-res.Volume) > 1e-9 {
		t.Errorf("per-worker volumes %v don't sum to %v", sum, res.Volume)
	}
	// Volume must equal blocks × 2·D/k.
	x1 := 1.0 / 7.0
	blockData := 2 * math.Sqrt(x1) * n / float64(res.K)
	if math.Abs(res.Volume-float64(res.Blocks)*blockData) > 1e-6 {
		t.Errorf("volume %v != blocks %d × blockData %v", res.Volume, res.Blocks, blockData)
	}
}

func TestCommhomKBadArgs(t *testing.T) {
	pl := homPlat(t, 2)
	if _, err := CommhomK(pl, 10, 0, 0); err == nil {
		t.Error("eps=0 should fail")
	}
	if _, err := CommhomK(pl, 10, -1, 0); err == nil {
		t.Error("negative eps should fail")
	}
}

func TestCommhetWithinGuarantee(t *testing.T) {
	r := stats.NewRNG(3)
	for _, p := range []int{10, 50, 100} {
		for _, d := range []stats.Distribution{
			stats.Uniform{Lo: 1, Hi: 100},
			stats.LogNormal{Mu: 0, Sigma: 1},
		} {
			pl, err := platform.Generate(p, d, r)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Commhet(pl, 500)
			if err != nil {
				t.Fatal(err)
			}
			if res.Ratio < 1-1e-9 {
				t.Errorf("p=%d %v: het ratio %v below 1", p, d, res.Ratio)
			}
			if res.Ratio > 1.75 {
				t.Errorf("p=%d %v: het ratio %v above 7/4 guarantee", p, d, res.Ratio)
			}
			// The paper's experimental finding: always within ~2% of LB.
			if res.Ratio > 1.05 {
				t.Errorf("p=%d %v: het ratio %v far above the ≈2%% the paper reports", p, d, res.Ratio)
			}
		}
	}
}

func TestCommhetPerWorkerFootprints(t *testing.T) {
	speeds := []float64{1, 1, 2}
	const n = 10
	res, err := Commhet(speedsPlat(t, speeds...), n)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerWorker) != 3 {
		t.Fatalf("per-worker length = %d", len(res.PerWorker))
	}
	// Worker i pays the half-perimeter of the rectangle serving index i.
	part, err := partition.PeriSum(speeds)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range part.Rects {
		if got, want := res.PerWorker[r.Index], r.HalfPerimeter()*n; got != want {
			t.Errorf("worker %d footprint %v, want (w+h)·N = %v", r.Index, got, want)
		}
	}
	sum := 0.0
	for i, v := range res.PerWorker {
		if v <= 0 {
			t.Errorf("worker %d footprint %v", i, v)
		}
		sum += v
	}
	if math.Abs(sum-res.Volume) > 1e-9 {
		t.Errorf("footprints sum %v != volume %v", sum, res.Volume)
	}
	if total := part.SumHalfPerimeters() * n; math.Abs(sum-total) > 1e-9 {
		t.Errorf("footprints sum %v != Σ(w+h)·N = %v", sum, total)
	}
}

// halfFastPlatform is E6's platform: 20 workers, half at speed 1 and
// half at speed k.
func halfFastPlatform(t *testing.T, k float64) *platform.Platform {
	t.Helper()
	speeds := make([]float64, 20)
	for i := range speeds {
		speeds[i] = 1
		if i >= 10 {
			speeds[i] = k
		}
	}
	pl, err := platform.FromSpeeds(speeds)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestRhoBimodalMatchesAnalysis(t *testing.T) {
	// Half the platform at speed 1, half at speed k: there
	// (1+k)/(1+√k) = Comm_hom/LB, so ρ = Comm_hom/Comm_het is at most that
	// value. Comm_het is within a few percent of LB, so the measured ratio
	// stays within the partitioner's slack below it.
	const n = 1000
	for _, k := range []float64{1, 4, 16, 64, 100} {
		pl := halfFastPlatform(t, k)
		hom := Commhom(pl, n)
		het, err := Commhet(pl, n)
		if err != nil {
			t.Fatal(err)
		}
		rho := hom.Volume / het.Volume
		// The analytic bound (carries the partitioner's 7/4 slack as a 4/7
		// factor, so it holds where the 7/4 bound does, as here):
		// ρ ≥ (4/7)·Σs/(√s₁·Σ√s).
		if rho < RhoAnalytic(pl)-1e-9 {
			t.Errorf("k=%v: measured ρ=%v below analytic bound %v", k, rho, RhoAnalytic(pl))
		}
		// Empirical shape: Comm_het lands within a few percent of LB, so ρ
		// tracks (1+k)/(1+√k) up to that slack, and √k-1 within 10%.
		bound := RhoLowerBound(k)
		if rho < bound*0.9 {
			t.Errorf("k=%v: measured ρ=%v far below (1+k)/(1+√k)=%v", k, rho, bound)
		}
		if rho < (math.Sqrt(k)-1)*0.9 {
			t.Errorf("k=%v: measured ρ=%v far below √k-1", k, rho)
		}
	}
}

// On E6's platforms (20 workers, half at speed 1, half at speed k),
// (1+k)/(1+√k) is exactly Comm_hom/LB, so ρ = Comm_hom/Comm_het never
// exceeds it; and the "ρ ≥ √k-1" of the paper's Section 4.1.3 fails at
// k = 64 and 100, where Comm_het's distance from LB costs more than the
// 2/(1+√k) between the two values. Both checks carry no slack.
func TestRhoBimodalCounterexamples(t *testing.T) {
	const n = 1000
	for _, k := range []float64{1, 4, 16, 64, 100} {
		pl := halfFastPlatform(t, k)
		het, err := Commhet(pl, n)
		if err != nil {
			t.Fatal(err)
		}
		rho := Commhom(pl, n).Volume / het.Volume
		if rho > RhoLowerBound(k) {
			t.Errorf("k=%v: ρ = %v above Comm_hom/LB = (1+k)/(1+√k) = %v", k, rho, RhoLowerBound(k))
		}
		if (k == 64 || k == 100) && rho >= math.Sqrt(k)-1 {
			t.Errorf("k=%v: ρ = %v, want below √k-1 = %v", k, rho, math.Sqrt(k)-1)
		}
	}
}

func TestRhoLowerBoundValues(t *testing.T) {
	if got := RhoLowerBound(1); math.Abs(got-1) > 1e-12 {
		t.Errorf("ρ bound at k=1 = %v, want 1", got)
	}
	if got := RhoLowerBound(100); math.Abs(got-101.0/11.0) > 1e-12 {
		t.Errorf("ρ bound at k=100 = %v, want 101/11", got)
	}
	// (1+k)/(1+√k) ≥ √k - 1 for all k ≥ 1.
	for k := 1.0; k < 1000; k *= 1.7 {
		if RhoLowerBound(k) < math.Sqrt(k)-1-1e-12 {
			t.Errorf("bound chain fails at k=%v", k)
		}
	}
}

func TestResultString(t *testing.T) {
	pl := homPlat(t, 4)
	if Commhom(pl, 10).String() == "" {
		t.Error("empty result string")
	}
}

// Property: demand-driven counts conserve the block total and roughly
// track speeds; the bisection implementation always matches brute force.
func TestDemandCountsProperty(t *testing.T) {
	f := func(seed int64, np, nb uint8) bool {
		p := int(np%10) + 1
		b := int(nb % 100)
		r := stats.NewRNG(seed)
		speeds := make([]float64, p)
		for i := range speeds {
			speeds[i] = 0.25 + 8*r.Float64()
		}
		got := demandCounts(nil, speeds, b)
		want := bruteDemandCounts(speeds, b)
		total := 0
		for i := range got {
			if got[i] != want[i] {
				return false
			}
			total += got[i]
		}
		return total == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: on any platform, Comm_het ∈ [LB, 1.75·LB] and Comm_hom ≥ LB.
func TestStrategyBoundsProperty(t *testing.T) {
	f := func(seed int64, np uint8) bool {
		p := int(np%30) + 1
		r := stats.NewRNG(seed)
		pl, err := platform.Generate(p, stats.LogNormal{Mu: 0, Sigma: 1}, r)
		if err != nil {
			return false
		}
		const n = 100
		lb := LowerBound(pl, n)
		hom := Commhom(pl, n)
		het, err := Commhet(pl, n)
		if err != nil {
			return false
		}
		return hom.Volume >= lb-1e-6 &&
			het.Volume >= lb-1e-6 &&
			het.Volume <= 1.75*lb+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestRoundedCountsExact(t *testing.T) {
	xs := []float64{0.5, 0.3, 0.2}
	got := demandTotal(roundedCounts(xs, 10))
	if got != 10 {
		t.Fatalf("total = %d, want 10", got)
	}
	counts := roundedCounts(xs, 10)
	if counts[0] != 5 || counts[1] != 3 || counts[2] != 2 {
		t.Errorf("counts = %v, want [5 3 2]", counts)
	}
	// Fractions: 0.35·3 etc — largest remainders get the extras.
	counts = roundedCounts([]float64{0.35, 0.33, 0.32}, 10)
	if demandTotal(counts) != 10 {
		t.Errorf("total = %d", demandTotal(counts))
	}
	if counts[0] != 4 { // 3.5 has the largest remainder
		t.Errorf("counts = %v, worker 0 should get the extra", counts)
	}
}

func demandTotal(counts []int) int {
	s := 0
	for _, c := range counts {
		s += c
	}
	return s
}

func TestCommhomKRoundedConvergesFasterOrEqual(t *testing.T) {
	// Largest-remainder rounding has half the worst-case per-worker error
	// of the demand-driven claim process, so *on average* it converges at
	// smaller k and a smaller ratio (per-instance it can tie or lose).
	r := stats.NewRNG(12)
	var ddK, roundedK, ddRatio, roundedRatio float64
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		pl, err := platform.Generate(60, stats.Uniform{Lo: 1, Hi: 100}, r)
		if err != nil {
			t.Fatal(err)
		}
		dd, err := CommhomK(pl, 1000, 0.01, 0)
		if err != nil {
			t.Fatal(err)
		}
		rounded, err := CommhomKRounded(pl, 1000, 0.01, 0)
		if err != nil {
			t.Fatal(err)
		}
		if rounded.Imbalance > 0.01 {
			t.Errorf("rounded imbalance %v above target", rounded.Imbalance)
		}
		ddK += float64(dd.K)
		roundedK += float64(rounded.K)
		ddRatio += dd.Ratio
		roundedRatio += rounded.Ratio
	}
	if roundedK >= ddK {
		t.Errorf("mean rounded k %v should be below demand-driven %v", roundedK/trials, ddK/trials)
	}
	if roundedRatio >= ddRatio {
		t.Errorf("mean rounded ratio %v should be below demand-driven %v", roundedRatio/trials, ddRatio/trials)
	}
}

func TestCommhomKRoundedValidation(t *testing.T) {
	pl := homPlat(t, 3)
	if _, err := CommhomKRounded(pl, 10, 0, 0); err == nil {
		t.Error("eps=0 should fail")
	}
	res, err := CommhomKRounded(pl, 10, 0.01, 0)
	if err != nil || res.K != 1 {
		t.Errorf("homogeneous should converge at k=1: %+v %v", res, err)
	}
}

func TestBlockAssignment(t *testing.T) {
	pl := speedsPlat(t, 1, 3)
	grid, err := BlockAssignment(pl, 4)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 2)
	for _, row := range grid {
		for _, w := range row {
			if w < 0 || w > 1 {
				t.Fatalf("bad owner %d", w)
			}
			counts[w]++
		}
	}
	if counts[0]+counts[1] != 16 {
		t.Fatalf("counts %v", counts)
	}
	// 3x faster worker takes ≈ 12 of 16 blocks.
	if counts[1] < 10 || counts[1] > 14 {
		t.Errorf("fast worker got %d blocks, want ≈12", counts[1])
	}
	out := RenderBlockAssignment(grid)
	if !strings.Contains(out, "0") || !strings.Contains(out, "1") {
		t.Errorf("rendering missing glyphs:\n%s", out)
	}
	if _, err := BlockAssignment(pl, 0); err == nil {
		t.Error("g=0 should fail")
	}
}

func TestWeightedCommTime(t *testing.T) {
	// Unit bandwidths: weighted time == volume.
	pl := speedsPlat(t, 1, 2, 4)
	const n = 100
	het, err := Commhet(pl, n)
	if err != nil {
		t.Fatal(err)
	}
	total, worst := WeightedCommTime(pl, het)
	if math.Abs(total-het.Volume) > 1e-9 {
		t.Errorf("unit-bandwidth weighted time %v != volume %v", total, het.Volume)
	}
	if worst <= 0 || worst > total {
		t.Errorf("worst %v outside (0, total]", worst)
	}
	// Doubling every bandwidth halves the times.
	ws := make([]platform.Worker, 3)
	for i, s := range []float64{1, 2, 4} {
		ws[i] = platform.Worker{Speed: s, Bandwidth: 2}
	}
	fast, err := platform.New(ws)
	if err != nil {
		t.Fatal(err)
	}
	het2, err := Commhet(fast, n)
	if err != nil {
		t.Fatal(err)
	}
	total2, _ := WeightedCommTime(fast, het2)
	if math.Abs(total2-total/2) > 1e-9 {
		t.Errorf("2× bandwidth should halve the time: %v vs %v", total2, total/2)
	}
	// The heterogeneity-aware layout keeps its advantage under weighting.
	hom := Commhom(pl, n)
	homTotal, _ := WeightedCommTime(pl, hom)
	if homTotal <= total {
		t.Errorf("weighted hom %v should exceed weighted het %v", homTotal, total)
	}
}
