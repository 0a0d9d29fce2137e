package samplesort

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"nlfl/internal/platform"
	"nlfl/internal/stats"
)

func randomFloats(seed int64, n int) []float64 {
	r := stats.NewRNG(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Float64() * 1000
	}
	return xs
}

func TestSortCorrectness(t *testing.T) {
	cases := []struct {
		name string
		n    int
		p    int
	}{
		{"tiny", 10, 2},
		{"single worker", 1000, 1},
		{"more workers than keys", 5, 16},
		{"medium", 10000, 8},
		{"large", 100000, 16},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			xs := randomFloats(int64(c.n), c.n)
			orig := append([]float64(nil), xs...)
			got, tr, err := Sort(xs, Config{Workers: c.p, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.IsSorted(got) {
				t.Fatal("output not sorted")
			}
			if len(got) != c.n {
				t.Fatalf("length %d, want %d", len(got), c.n)
			}
			// Same multiset: compare against stdlib sort.
			want := append([]float64(nil), orig...)
			slices.Sort(want)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("element %d = %v, want %v", i, got[i], want[i])
				}
			}
			// Input untouched.
			for i := range orig {
				if xs[i] != orig[i] {
					t.Fatal("Sort mutated its input")
				}
			}
			total := 0
			for _, b := range tr.BucketSizes {
				total += b
			}
			if total != c.n {
				t.Errorf("bucket sizes sum to %d, want %d", total, c.n)
			}
		})
	}
}

func TestSortStrings(t *testing.T) {
	xs := []string{"pear", "apple", "fig", "banana", "date", "cherry"}
	got, _, err := Sort(xs, Config{Workers: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.IsSorted(got) {
		t.Errorf("strings not sorted: %v", got)
	}
}

func TestSortWithDuplicates(t *testing.T) {
	xs := make([]int, 5000)
	r := stats.NewRNG(3)
	for i := range xs {
		xs[i] = r.Intn(7) // heavy duplication stresses splitter ties
	}
	got, _, err := Sort(xs, Config{Workers: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.IsSorted(got) {
		t.Error("duplicate-heavy input not sorted")
	}
	if len(got) != len(xs) {
		t.Error("length changed")
	}
}

func TestSortEmptyAndValidation(t *testing.T) {
	got, tr, err := Sort([]float64(nil), Config{Workers: 4, Seed: 0})
	if err != nil || len(got) != 0 {
		t.Errorf("empty input: %v, %v", got, err)
	}
	if len(tr.BucketSizes) != 4 {
		t.Errorf("bucket sizes = %v", tr.BucketSizes)
	}
	if _, _, err := Sort([]float64{1}, Config{Workers: 0}); err == nil {
		t.Error("zero workers should fail")
	}
	if _, _, err := Sort([]float64{1}, Config{Workers: 2, Oversampling: -1}); err == nil {
		t.Error("negative oversampling should fail")
	}
}

func TestSortDeterminism(t *testing.T) {
	xs := randomFloats(5, 20000)
	_, tr1, err := Sort(xs, Config{Workers: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	_, tr2, err := Sort(xs, Config{Workers: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr1.BucketSizes {
		if tr1.BucketSizes[i] != tr2.BucketSizes[i] {
			t.Fatal("same seed produced different buckets")
		}
	}
}

func TestSortSequentialMatchesParallel(t *testing.T) {
	xs := randomFloats(6, 30000)
	seqOut, seqTr, err := Sort(xs, Config{Workers: 6, Seed: 11, Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	parOut, parTr, err := Sort(xs, Config{Workers: 6, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seqOut {
		if seqOut[i] != parOut[i] {
			t.Fatal("sequential and parallel outputs differ")
		}
	}
	if seqTr.MaxBucket != parTr.MaxBucket {
		t.Error("traces differ between sequential and parallel runs")
	}
}

func TestDefaultOversampling(t *testing.T) {
	if got := DefaultOversampling(1); got != 1 {
		t.Errorf("n=1: %d", got)
	}
	// N = 2^10 = 1024: log₂²N = 100.
	if got := DefaultOversampling(1024); got != 100 {
		t.Errorf("n=1024: %d, want 100", got)
	}
	if DefaultOversampling(1<<20) != 400 {
		t.Error("n=2^20 should give 400")
	}
}

func TestTraceCostAccounting(t *testing.T) {
	n, p := 1<<14, 8
	xs := randomFloats(7, n)
	_, tr, err := Sort(xs, Config{Workers: p, Seed: 13, Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	if tr.ComparisonsRouting != float64(n)*3 {
		t.Errorf("routing comparisons = %v, want N·log₂8 = %v", tr.ComparisonsRouting, float64(n)*3)
	}
	// Bucket work must be within [N·log(N/p)·(1-ε), N·log N].
	seq := float64(n) * math.Log2(float64(n))
	if tr.ComparisonsBuckets >= seq {
		t.Errorf("bucket work %v should be under sequential %v", tr.ComparisonsBuckets, seq)
	}
	ideal := seq - float64(n)*math.Log2(float64(p))
	if tr.ComparisonsBuckets < ideal*0.95 {
		t.Errorf("bucket work %v far below the W-N·log p prediction %v", tr.ComparisonsBuckets, ideal)
	}
	if tr.MaxBucketRatio() < 1 {
		t.Errorf("max bucket ratio %v < 1 is impossible", tr.MaxBucketRatio())
	}
}

func TestMaxBucketConcentration(t *testing.T) {
	// With s = log²N the largest bucket stays within the Theorem B.4
	// threshold in the vast majority of trials.
	res, err := CheckConcentration(1<<14, 8, 0, 40, 99)
	if err != nil {
		t.Fatal(err)
	}
	// The theorem promises failure ≤ N^(-1/3) ≈ 0.04; allow Monte-Carlo
	// slack up to 0.15.
	if rate := res.EmpiricalFailureRate(); rate > 0.15 {
		t.Errorf("failure rate %v, theorem bound %v", rate, res.FailureBound)
	}
	if res.MeanRatio < 1 || res.MeanRatio > 1.2 {
		t.Errorf("mean max-bucket ratio %v outside [1, 1.2]", res.MeanRatio)
	}
}

func TestNonDivisibleFraction(t *testing.T) {
	// log p / log N: p=16, N=2^16 → 4/16 = 0.25.
	if got := NonDivisibleFraction(1<<16, 16); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("fraction = %v, want 0.25", got)
	}
	if NonDivisibleFraction(2, 1024) != 1 {
		t.Error("fraction must clamp at 1")
	}
	if NonDivisibleFraction(1, 4) != 0 || NonDivisibleFraction(100, 0) != 0 {
		t.Error("degenerate inputs should give 0")
	}
	// Must decrease in N for fixed p.
	prev := 1.0
	for _, n := range []int{1 << 8, 1 << 12, 1 << 16, 1 << 24} {
		f := NonDivisibleFraction(n, 32)
		if f >= prev {
			t.Errorf("fraction %v did not decrease at N=%d", f, n)
		}
		prev = f
	}
}

func TestCostModelSpeedup(t *testing.T) {
	// The Section 3.1 optimality claim is asymptotic: the master-side
	// routing (N·log p) only vanishes relative to the parallel phase
	// ((N/p)·log N) once log N ≫ p·log p. Probe the asymptotic regime
	// analytically at N = 2^1000.
	// The pre-processing share (Step1+Step2)/Total must vanish as N grows
	// for the DLT framing to pay off.
	share := func(c CostModel) float64 { return (c.Step1 + c.Step2) / c.Total() }
	c := Cost(math.Pow(2, 1000), 16, 0)
	if c.Speedup() < 0.85*16 {
		t.Errorf("asymptotic speedup = %v, want near 16", c.Speedup())
	}
	if share(c) > 0.1 {
		t.Errorf("asymptotic pre-processing share = %v, should vanish", share(c))
	}
	// Speedup grows and the pre-processing share shrinks with N.
	prevSpeedup, prevShare := 0.0, 1.0
	for _, exp := range []float64{14, 22, 50, 200, 1000} {
		m := Cost(math.Pow(2, exp), 16, 0)
		if m.Speedup() <= prevSpeedup {
			t.Errorf("speedup should improve with N: %v at 2^%v", m.Speedup(), exp)
		}
		if share(m) >= prevShare {
			t.Errorf("pre-processing share should shrink with N: %v at 2^%v", share(m), exp)
		}
		prevSpeedup, prevShare = m.Speedup(), share(m)
	}
	if Cost(0, 4, 1).Speedup() != 0 {
		t.Error("empty cost model speedup should be 0")
	}
}

func TestSortHeterogeneousCorrectAndBalanced(t *testing.T) {
	pl, err := platform.FromSpeeds([]float64{1, 2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200000
	xs := randomFloats(21, n)
	got, ht, err := SortHeterogeneous(xs, pl, Config{Seed: 5, Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.IsSorted(got) || len(got) != n {
		t.Fatal("heterogeneous sort incorrect")
	}
	// Bucket sizes must track speeds: worker 3 (speed 8) gets ≈ 8/15 of
	// the keys.
	frac := float64(ht.BucketSizes[3]) / float64(n)
	if math.Abs(frac-8.0/15.0) > 0.05 {
		t.Errorf("fast bucket fraction = %v, want ≈ %v", frac, 8.0/15.0)
	}
	// Modelled sort-time imbalance: tᵢ ∝ log(xᵢN)/log N differs across
	// workers by ≈ log(x_max/x_min)/log(x_min·N) ≈ 0.22 at this N (it
	// decays only like 1/log N).
	if e := ht.Imbalance(); e > 0.3 {
		t.Errorf("imbalance = %v, want < 0.3", e)
	}
}

func TestSortHeterogeneousImbalanceShrinksWithN(t *testing.T) {
	pl, err := platform.FromSpeeds([]float64{1, 3, 9})
	if err != nil {
		t.Fatal(err)
	}
	var es []float64
	for _, n := range []int{1000, 30000, 1000000} {
		xs := randomFloats(int64(n), n)
		_, ht, err := SortHeterogeneous(xs, pl, Config{Seed: 17, Sequential: true})
		if err != nil {
			t.Fatal(err)
		}
		es = append(es, ht.Imbalance())
	}
	if es[2] > es[0] {
		t.Errorf("imbalance should shrink with N: %v", es)
	}
	// The decay is logarithmic: ≈ log₂(9)/log₂(N/13) ≈ 0.20 at N = 10⁶.
	if es[2] > 0.25 {
		t.Errorf("imbalance at N=10^6 is %v, want < 0.25", es[2])
	}
}

func TestSortHeterogeneousHomogeneousPlatformMatchesPlain(t *testing.T) {
	pl, err := platform.Homogeneous(4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	xs := randomFloats(31, 50000)
	hetOut, ht, err := SortHeterogeneous(xs, pl, Config{Seed: 3, Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.IsSorted(hetOut) {
		t.Fatal("not sorted")
	}
	// Equal speeds → near-equal buckets.
	if ht.MaxBucketRatio() > 1.2 {
		t.Errorf("homogeneous-platform het sort unbalanced: ratio %v", ht.MaxBucketRatio())
	}
}

func TestSortHeterogeneousEdgeCases(t *testing.T) {
	pl, _ := platform.Homogeneous(3, 1, 1)
	got, ht, err := SortHeterogeneous([]int(nil), pl, Config{Seed: 0})
	if err != nil || len(got) != 0 {
		t.Errorf("empty het sort: %v %v", got, err)
	}
	if len(ht.BucketSizes) != 3 {
		t.Error("bucket sizes missing")
	}
	if _, _, err := SortHeterogeneous([]int{1}, pl, Config{Oversampling: -2}); err == nil {
		t.Error("negative oversampling should fail")
	}
}

func TestTheoremB4Numbers(t *testing.T) {
	n := 1 << 12 // log₂N = 12
	th := TheoremB4Threshold(n, 4)
	want := float64(n) / 4 * (1 + math.Pow(1.0/12.0, 1.0/3.0))
	if math.Abs(th-want) > 1e-9 {
		t.Errorf("threshold = %v, want %v", th, want)
	}
	fb := TheoremB4FailureBound(n)
	if math.Abs(fb-math.Pow(float64(n), -1.0/3.0)) > 1e-12 {
		t.Errorf("failure bound = %v", fb)
	}
	if TheoremB4FailureBound(0) != 1 {
		t.Error("degenerate failure bound should be 1")
	}
}

// Property: sample sort equals stdlib sort on arbitrary int slices for
// arbitrary worker counts.
func TestSortMatchesStdlibProperty(t *testing.T) {
	f := func(xs []int, pRaw uint8, seed int64) bool {
		p := int(pRaw%16) + 1
		got, _, err := Sort(xs, Config{Workers: p, Seed: seed})
		if err != nil {
			return false
		}
		want := append([]int(nil), xs...)
		slices.Sort(want)
		return slices.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: heterogeneous sample sort is also a correct sort.
func TestHeterogeneousSortProperty(t *testing.T) {
	f := func(xs []float64, seed int64, np uint8) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) {
				clean = append(clean, x)
			}
		}
		p := int(np%6) + 1
		r := stats.NewRNG(seed)
		pl, err := platform.Generate(p, stats.Uniform{Lo: 1, Hi: 10}, r)
		if err != nil {
			return false
		}
		got, _, err := SortHeterogeneous(clean, pl, Config{Seed: seed})
		if err != nil {
			return false
		}
		want := append([]float64(nil), clean...)
		slices.Sort(want)
		return slices.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
