package samplesort

import (
	"math"
	"slices"
	"testing"

	"nlfl/internal/platform"
	"nlfl/internal/solve"
	"nlfl/internal/stats"
)

func mustBalancedShares(t *testing.T, speeds []float64, n int) []float64 {
	t.Helper()
	shares, err := BalancedShares(speeds, n)
	if err != nil {
		t.Fatalf("BalancedShares(%v, %d): %v", speeds, n, err)
	}
	return shares
}

// Speeds that are not positive and finite used to spin the bracketing
// loop forever; they are now rejected up front. A subnormal speed used to
// double the common time to +Inf and return NaN shares; no finite time
// balances n ≥ 4 keys on it, so it is rejected too.
func TestBalancedSharesRejectsBadSpeeds(t *testing.T) {
	bad := []int{2, 100}
	for _, row := range []struct {
		speeds []float64
		ns     []int
	}{
		{[]float64{0, 0}, bad}, {[]float64{1, 0}, bad}, {[]float64{-1, 2}, bad},
		{[]float64{1, math.NaN()}, bad}, {[]float64{math.Inf(1), 1}, bad},
		{[]float64{}, bad}, {nil, bad},
		{[]float64{5e-324}, []int{100, 1_000_000}},
	} {
		for _, n := range row.ns {
			if shares, err := BalancedShares(row.speeds, n); err == nil {
				t.Errorf("BalancedShares(%v, %d) = %v, want an error", row.speeds, n, shares)
			}
		}
	}
}

func TestBalancedSharesSumToOne(t *testing.T) {
	for _, speeds := range [][]float64{{1}, {1, 1}, {1, 2, 4, 8}, {5, 0.1, 3}} {
		shares := mustBalancedShares(t, speeds, 1_000_000)
		sum := 0.0
		for _, f := range shares {
			if f <= 0 {
				t.Errorf("speeds %v: non-positive share %v", speeds, f)
			}
			sum += f
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("speeds %v: shares sum to %v", speeds, sum)
		}
	}
}

func TestBalancedSharesEqualizeModelTimes(t *testing.T) {
	speeds := []float64{1, 2, 4, 8}
	const n = 1 << 20
	shares := mustBalancedShares(t, speeds, n)
	// tᵢ = (fᵢN)·log₂(fᵢN)/sᵢ must be equal across workers.
	ref := shares[0] * float64(n) * math.Log2(shares[0]*float64(n)) / speeds[0]
	for i := 1; i < len(speeds); i++ {
		ti := shares[i] * float64(n) * math.Log2(shares[i]*float64(n)) / speeds[i]
		if math.Abs(ti-ref) > 1e-6*ref {
			t.Errorf("worker %d model time %v, want %v", i, ti, ref)
		}
	}
}

func TestBalancedSharesFallbackTinyN(t *testing.T) {
	shares := mustBalancedShares(t, []float64{1, 3}, 2)
	if math.Abs(shares[0]-0.25) > 1e-12 || math.Abs(shares[1]-0.75) > 1e-12 {
		t.Errorf("tiny-N fallback = %v, want speed-proportional", shares)
	}
}

func TestBalancedSharesHomogeneousEqual(t *testing.T) {
	shares := mustBalancedShares(t, []float64{2, 2, 2, 2}, 100000)
	for _, f := range shares {
		if math.Abs(f-0.25) > 1e-9 {
			t.Errorf("homogeneous balanced shares = %v", shares)
		}
	}
}

func TestSortHeterogeneousBalancedCorrectness(t *testing.T) {
	pl, err := platform.FromSpeeds([]float64{1, 2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	xs := randomFloats(77, 150000)
	got, ht, err := SortHeterogeneousBalanced(xs, pl, Config{Seed: 5, Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.IsSorted(got) || len(got) != len(xs) {
		t.Fatal("balanced heterogeneous sort incorrect")
	}
	total := 0
	for _, b := range ht.BucketSizes {
		total += b
	}
	if total != len(xs) {
		t.Errorf("buckets sum to %d", total)
	}
}

func TestBalancedBeatsProportionalImbalance(t *testing.T) {
	// The ablation: balanced shares should cut the modelled sort-time
	// imbalance well below the speed-proportional variant on a skewed
	// platform.
	pl, err := platform.FromSpeeds([]float64{1, 1, 16, 16})
	if err != nil {
		t.Fatal(err)
	}
	xs := randomFloats(88, 400000)
	// High oversampling so splitter sampling noise doesn't mask the
	// share policy under test.
	cfg := Config{Seed: 9, Sequential: true, Oversampling: 4000}
	_, plain, err := SortHeterogeneous(xs, pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, balanced, err := SortHeterogeneousBalanced(xs, pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if balanced.Imbalance() >= plain.Imbalance() {
		t.Errorf("balanced imbalance %v not below proportional %v",
			balanced.Imbalance(), plain.Imbalance())
	}
	// With the log factor corrected only sampling noise remains.
	if balanced.Imbalance() > 0.1 {
		t.Errorf("balanced imbalance %v, want < 0.1", balanced.Imbalance())
	}
}

func TestBalancedSharesSkewDirection(t *testing.T) {
	// Balancing must give the slow worker *more* than its proportional
	// share (its smaller bucket has a smaller log factor): f_slow·N·log
	// grows slower, so f_slow > x_slow.
	speeds := []float64{1, 31}
	const n = 1 << 22
	shares := mustBalancedShares(t, speeds, n)
	proportional := 1.0 / 32.0
	if shares[0] <= proportional {
		t.Errorf("slow share %v should exceed proportional %v", shares[0], proportional)
	}
}

// bisectSortSize is BalancedShares' inner solve as it was before it
// solved exactly: x·log₂x = budget by bisection to 1e-12·(1+hi),
// returning the upper end. evals counts its cost evaluations.
func bisectSortSize(budget float64, evals *int) float64 {
	if budget <= 0 {
		return 1
	}
	cost := func(x float64) float64 { *evals++; return x * math.Log2(x) }
	lo, hi := 1.0, 2.0
	for cost(hi) < budget {
		hi *= 2
	}
	for it := 0; it < 100 && hi-lo > 1e-12*(1+hi); it++ {
		mid := (lo + hi) / 2
		if cost(mid) < budget {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// sortSize returns the float a bisection on the bit pattern over
// [1, +Inf] returns, on budgets from 2⁻¹⁰ to 2⁶⁰, with at least four times
// fewer cost evaluations than the bisection it replaced, and within that
// bisection's 1e-12 of its result.
func TestSortSizeExact(t *testing.T) {
	r := stats.NewRNG(5)
	var solves, exact, bisect int
	counted := func(x float64) (float64, float64) { exact++; return sortCost(x) }
	for range 20_000 {
		budget := math.Ldexp(1+r.Float64(), r.Intn(71)-10)
		got := sortSize(budget)
		lo, hi := math.Float64bits(1), math.Float64bits(math.Inf(1))
		for hi-lo > 1 {
			mid := lo + (hi-lo)/2
			if x := math.Float64frombits(mid); x*math.Log2(x) <= budget {
				lo = mid
			} else {
				hi = mid
			}
		}
		if want := math.Float64frombits(lo); got != want {
			t.Fatalf("sortSize(%v) = %v, bit bisection gives %v", budget, got, want)
		}
		if x := solve.Largest(counted, budget, 1, sortStart(budget)); x != got {
			t.Fatalf("budget %v: the counted solve gives %v, sortSize %v", budget, x, got)
		}
		if old := bisectSortSize(budget, &bisect); math.Abs(old-got) > 1e-12*(1+old) {
			t.Fatalf("sortSize(%v) = %v, %v from the bisection's %v", budget, got, old-got, old)
		}
		solves++
	}
	perExact, perBisect := float64(exact)/float64(solves), float64(bisect)/float64(solves)
	t.Logf("%.2f evaluations per exact solve, %.2f per bisection", perExact, perBisect)
	if perBisect < 4*perExact {
		t.Errorf("%.2f evaluations per exact solve, want at most a quarter of the bisection's %.2f", perExact, perBisect)
	}
}

// refBalancedShares is BalancedShares' solve as it was before it went
// through solve.Level: an uncapped doubling of the common time, then at
// most 100 bisection steps from 0 to 1e-12·(1+hi), each share solved
// again at hi. It takes speeds that BalancedShares accepts and n ≥ 4.
func refBalancedShares(speeds []float64, n int) []float64 {
	nf := float64(n)
	sumAt := func(t float64) float64 {
		sum := 0.0
		for _, s := range speeds {
			sum += sortSize(t * s)
		}
		return sum
	}
	tLo, tHi := 0.0, 1.0
	for sumAt(tHi) < nf {
		tHi *= 2
	}
	for it := 0; it < 100 && tHi-tLo > 1e-12*(1+tHi); it++ {
		mid := (tLo + tHi) / 2
		if sumAt(mid) < nf {
			tLo = mid
		} else {
			tHi = mid
		}
	}
	out := make([]float64, len(speeds))
	sum := 0.0
	for i, s := range speeds {
		out[i] = sortSize(tHi * s)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// BalancedShares returns the reference's floats, compared with ==, on 10⁴
// random speed vectors spread over up to nine decades, for key counts
// from 4 to 2³⁰.
func TestBalancedSharesMatchesReference(t *testing.T) {
	r := stats.NewRNG(44)
	for trial := range 10_000 {
		speeds := make([]float64, 1+r.Intn(6))
		spread := 9 * r.Float64()
		for i := range speeds {
			speeds[i] = math.Pow(10, spread*r.Float64()-3)
		}
		n := 4 + r.Intn(1<<(2+r.Intn(29)))
		got, err := BalancedShares(speeds, n)
		if err != nil {
			t.Fatalf("trial %d: BalancedShares(%v, %d): %v", trial, speeds, n, err)
		}
		if want := refBalancedShares(speeds, n); !slices.Equal(got, want) {
			t.Fatalf("trial %d: BalancedShares(%v, %d) = %v, the reference gives %v", trial, speeds, n, got, want)
		}
	}
}
