package experiments

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"nlfl/internal/platform"
	"nlfl/internal/samplesort"
	"nlfl/internal/stats"
)

// smallFig4 runs a cheap panel for tests.
func smallFig4(t *testing.T, profile platform.SpeedProfile) []Fig4Point {
	t.Helper()
	cfg := DefaultFig4Config(profile)
	cfg.Ps = []int{10, 40, 100}
	cfg.Trials = 15
	pts, err := Fig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("got %d points", len(pts))
	}
	return pts
}

func TestFig4HomogeneousPanel(t *testing.T) {
	// Figure 4(a): all strategies within ~1% of the lower bound.
	for _, pt := range smallFig4(t, platform.ProfileHomogeneous) {
		for name, v := range map[string]float64{
			"het": pt.HetMean, "hom": pt.HomMean, "hom/k": pt.HomKMean,
		} {
			if v < 1-1e-9 || v > 1.02 {
				t.Errorf("homogeneous p=%d %s ratio = %v, want ≈1", pt.P, name, v)
			}
		}
		if pt.KMean != 1 {
			t.Errorf("homogeneous platforms should not need refinement, k̄=%v", pt.KMean)
		}
	}
}

func TestFig4UniformPanel(t *testing.T) {
	// Figure 4(b): Comm_het stays ≈1; Comm_hom/k blows up with p, reaching
	// 15–30× at p=100.
	pts := smallFig4(t, platform.ProfileUniform)
	for _, pt := range pts {
		if pt.HetMean > 1.05 {
			t.Errorf("uniform p=%d het ratio = %v, paper reports ≤ ~1.02", pt.P, pt.HetMean)
		}
		if pt.HomKMean < pt.HomMean-3*pt.HomSD {
			t.Errorf("uniform p=%d hom/k (%v) unexpectedly far below hom (%v)", pt.P, pt.HomKMean, pt.HomMean)
		}
	}
	last := pts[len(pts)-1]
	if last.HomKMean < 8 || last.HomKMean > 60 {
		t.Errorf("uniform p=100 hom/k ratio = %v, paper reports 15–30", last.HomKMean)
	}
	// The blow-up must grow with p.
	if pts[0].HomKMean >= last.HomKMean {
		t.Errorf("hom/k ratio should grow with p: %v → %v", pts[0].HomKMean, last.HomKMean)
	}
}

func TestFig4LogNormalPanel(t *testing.T) {
	// Figure 4(c): same shape as (b) under log-normal speeds.
	pts := smallFig4(t, platform.ProfileLogNormal)
	for _, pt := range pts {
		if pt.HetMean > 1.05 {
			t.Errorf("lognormal p=%d het ratio = %v", pt.P, pt.HetMean)
		}
	}
	last := pts[len(pts)-1]
	if last.HomKMean < 5 {
		t.Errorf("lognormal p=100 hom/k ratio = %v, expected a large blow-up", last.HomKMean)
	}
}

func TestFig4Determinism(t *testing.T) {
	cfg := DefaultFig4Config(platform.ProfileUniform)
	cfg.Ps = []int{20}
	cfg.Trials = 5
	a, err := Fig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a[0] != b[0] {
		t.Errorf("Fig4 not deterministic: %+v vs %+v", a[0], b[0])
	}
}

func TestFig4Validation(t *testing.T) {
	cfg := DefaultFig4Config(platform.ProfileUniform)
	cfg.Trials = 0
	if _, err := Fig4(cfg); err == nil {
		t.Error("zero trials should fail")
	}
}

func TestFig4Rendering(t *testing.T) {
	pts := smallFig4(t, platform.ProfileUniform)
	chart := Fig4Chart(pts, "Figure 4(b)").Render()
	for _, want := range []string{"Comm_het", "Comm_hom", "Comm_hom/k", "Figure 4(b)"} {
		if !strings.Contains(chart, want) {
			t.Errorf("chart missing %q", want)
		}
	}
	table := Fig4Table(pts).String()
	if !strings.Contains(table, "Comm_het") {
		t.Errorf("table missing header:\n%s", table)
	}
	if pts[0].String() == "" {
		t.Error("point rendering empty")
	}
}

func TestNonLinearTable(t *testing.T) {
	table, rows, err := NonLinearTable([]int{10, 100}, []float64{2}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if !strings.Contains(table.String(), "0.99") {
		t.Errorf("expected the P=100 α=2 fraction 0.99 in:\n%s", table)
	}
}

func TestRhoSweep(t *testing.T) {
	pts, err := RhoSweep([]float64{1, 16, 100}, 20, 1000)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, pt := range pts {
		if pt.Measured < pt.AnalyticBound-1e-9 {
			t.Errorf("k=%v: measured %v below analytic bound %v", pt.K, pt.Measured, pt.AnalyticBound)
		}
		if pt.Measured < prev {
			t.Errorf("ρ must grow with k: %v after %v", pt.Measured, prev)
		}
		prev = pt.Measured
	}
	// k=1 is homogeneous: both strategies coincide up to the partitioner's
	// slack on a non-square p (20 rectangles can't all be squares).
	if math.Abs(pts[0].Measured-1) > 0.01 {
		t.Errorf("k=1 ρ = %v, want ≈1", pts[0].Measured)
	}
	if RhoTable(pts).String() == "" {
		t.Error("empty rho table")
	}
	if _, err := RhoSweep([]float64{2}, 7, 100); err == nil {
		t.Error("odd p should fail")
	}
}

func TestPartitionQuality(t *testing.T) {
	rows, err := PartitionQuality([]int{10, 50}, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 3 dists × 2 ps", len(rows))
	}
	for _, r := range rows {
		if r.MeanRatio < 1-1e-9 || r.MaxRatio > 1.75 {
			t.Errorf("%s p=%d: ratios [%v, %v] outside [1, 7/4]", r.Dist, r.P, r.MeanRatio, r.MaxRatio)
		}
		// The practical quality the paper reports: within a few percent.
		if r.MeanRatio > 1.06 {
			t.Errorf("%s p=%d: mean ratio %v above the ≈2%% regime", r.Dist, r.P, r.MeanRatio)
		}
	}
	if PartitionQualityTable(rows).String() == "" {
		t.Error("empty table")
	}
}

// refPartitionQuality is PartitionQuality as one independent run: every
// point splits its trials' generators from the root in trial order
// (perTrial), or runs one trial for a stats.Constant point
// (perTrialOnce), and folds the ratios in trial order.
func refPartitionQuality(ps []int, trials int, seed int64) ([]PartitionQualityRow, error) {
	root := stats.NewRNG(seed)
	var rows []PartitionQualityRow
	for _, d := range []stats.Distribution{stats.Constant{Value: 1}, stats.Uniform{Lo: 1, Hi: 100}, stats.LogNormal{Mu: 0, Sigma: 1}} {
		run := perTrial[float64]
		if _, ok := d.(stats.Constant); ok {
			run = perTrialOnce[float64]
		}
		for _, p := range ps {
			ratios, err := run(root, trials, qualityTrial(d, p))
			if err != nil {
				return nil, err
			}
			var w stats.Welford
			for _, ratio := range ratios {
				w.Add(ratio)
			}
			rows = append(rows, PartitionQualityRow{Dist: d.String(), P: p, MeanRatio: w.Mean(), MaxRatio: w.Max()})
		}
	}
	return rows, nil
}

// The shared E12 step gives each run the rows an independent run gives:
// the suite's 51 and `nlfl all`'s 50 trials on the paper's platform
// sizes, at three seeds, through partitionQualityRuns and through
// RunSuite's record pair, and counts far apart, which
// share no trial past the first point.
func TestPartitionQualityRunsMatchIndependentRuns(t *testing.T) {
	ps := []int{10, 25, 50, 100}
	for _, seed := range []int64{42, 7, 43} {
		for _, counts := range [][]int{{51, 50}, {3, 50, 1}} {
			runs, err := partitionQualityRuns(ps, counts, seed)
			if err != nil {
				t.Fatal(err)
			}
			for k, n := range counts {
				want, err := refPartitionQuality(ps, n, seed)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(runs[k], want) {
					t.Errorf("seed %d, counts %v: the %d-trial run gives\n%+v\nan independent run\n%+v", seed, counts, n, runs[k], want)
				}
			}
		}
	}
	res, err := RunSuite(SuiteConfig{Trials: 9, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		got    []PartitionQualityRow
		trials int
	}{{res.PartitionQuality, 9/2 + 1}, {res.QualityRecord, QualityTrials}} {
		want, err := refPartitionQuality(ps, c.trials, 43)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(c.got, want) {
			t.Errorf("RunSuite's %d-trial E12 rows differ from an independent run:\n%+v\n%+v", c.trials, c.got, want)
		}
	}
	if _, err := partitionQualityRuns(ps, []int{5, 0}, 1); err == nil {
		t.Error("a run of 0 trials: no error")
	}
}

func TestSortScaling(t *testing.T) {
	rows, err := SortScaling([]int{1 << 10, 1 << 14, 1 << 17}, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Fraction >= rows[i-1].Fraction {
			t.Errorf("non-divisible fraction should fall with N: %+v", rows)
		}
		if rows[i].ModelSpeedup <= rows[i-1].ModelSpeedup {
			t.Errorf("model speedup should rise with N: %+v", rows)
		}
	}
	for _, r := range rows {
		if r.MaxBucketRatio < 1 {
			t.Errorf("max bucket ratio %v < 1", r.MaxBucketRatio)
		}
	}
	if SortScalingTable(rows, 8).String() == "" {
		t.Error("empty table")
	}
}

// TestSortScalingReplaysStoredKeys checks the replayed key streams
// against the sweep run on stored keys: every row, the later ones whose
// keys start after the earlier rows' keys and route seeds included, equals
// routing a slice drawn from one generator in the same order. The N = 0
// row's threshold ratio is finite (0), so two sweeps are deeply equal.
func TestSortScalingReplaysStoredKeys(t *testing.T) {
	ns := []int{0, 1000, 1 << 12, 3000}
	const p, seed = 8, 5
	got, err := SortScaling(ns, p, seed)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(seed)
	for k, n := range ns {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64()
		}
		tr, err := samplesort.Route(xs, samplesort.Config{Workers: p, Seed: r.Int63()})
		if err != nil {
			t.Fatal(err)
		}
		if got[k].N != n || got[k].MaxBucketRatio != tr.MaxBucketRatio() {
			t.Errorf("row %d (N=%d): max bucket ratio %v, stored keys give %v", k, n, got[k].MaxBucketRatio, tr.MaxBucketRatio())
		}
		if th := got[k].Threshold; math.IsNaN(th) || math.IsInf(th, 0) {
			t.Errorf("row %d (N=%d): threshold ratio %v, want a finite number", k, n, th)
		}
	}
	again, err := SortScaling(ns, p, seed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, again) {
		t.Errorf("two sweeps with the same seed differ:\n%+v\n%+v", got, again)
	}
}

// TestSortScalingAllocation pins that the E3 sweep stores no key: on 2^20
// keys at p = 8 it allocates the router's sample, its indices and a
// generator per walk, not the 8 MiB a stored key array costs.
func TestSortScalingAllocation(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := SortScaling([]int{1 << 20}, 8, 42); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("SortScaling on 2^20 keys allocated %d B", allocated)
	if allocated >= 256<<10 {
		t.Errorf("SortScaling on 2^20 keys allocated %d B, want < 256 kB: it must not store the keys", allocated)
	}
}

func TestMapReduceComparison(t *testing.T) {
	speeds := []float64{1, 1, 5, 9}
	table, err := MapReduceComparison(512, speeds, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := table.String()
	for _, want := range []string{"naive-pairs", "heterogeneous-rect", "grid(2x2)"} {
		if !strings.Contains(s, want) {
			t.Errorf("comparison missing %q:\n%s", want, s)
		}
	}
}

func TestFig4MatMulTransfersRatios(t *testing.T) {
	cfg := DefaultFig4Config(platform.ProfileUniform)
	cfg.Ps = []int{10, 50}
	cfg.Trials = 10
	mm, err := Fig4MatMul(cfg)
	if err != nil {
		t.Fatal(err)
	}
	op, err := Fig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range mm {
		// Ordering preserved under the matmul accounting.
		if !(mm[i].HetMean <= mm[i].HomMean && mm[i].HomMean <= mm[i].HomKMean) {
			t.Errorf("p=%d: matmul ordering violated: %+v", mm[i].P, mm[i])
		}
		// (C-2)/(LB-2) ≥ C/LB for C ≥ LB ≥ 2: matmul ratios weakly larger.
		if mm[i].HetMean < op[i].HetMean-1e-9 {
			t.Errorf("p=%d: matmul het ratio %v below outer %v", mm[i].P, mm[i].HetMean, op[i].HetMean)
		}
		if mm[i].HomKMean < op[i].HomKMean-1e-9 {
			t.Errorf("p=%d: matmul hom/k ratio %v below outer %v", mm[i].P, mm[i].HomKMean, op[i].HomKMean)
		}
		// But of the same order — the §4.2 transfer claim.
		if mm[i].HetMean > 1.1 {
			t.Errorf("p=%d: matmul het ratio %v should stay near 1", mm[i].P, mm[i].HetMean)
		}
	}
	cfg.Trials = 0
	if _, err := Fig4MatMul(cfg); err == nil {
		t.Error("zero trials should fail")
	}
}
