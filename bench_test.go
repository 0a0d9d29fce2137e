// Benchmarks regenerating every table and figure of the paper's
// evaluation (see DESIGN.md for the experiment index E1–E12). Each bench
// reports the experiment's headline metric via b.ReportMetric so that
// `go test -bench` output doubles as a results table.
package nlfl_test

import (
	"math"
	"testing"

	"nlfl/internal/dessim"
	"nlfl/internal/dlt"
	"nlfl/internal/experiments"
	"nlfl/internal/mapreduce"
	"nlfl/internal/matmul"
	"nlfl/internal/mrdlt"
	"nlfl/internal/nldlt"
	"nlfl/internal/outer"
	"nlfl/internal/partition"
	"nlfl/internal/platform"
	"nlfl/internal/samplesort"
	"nlfl/internal/stats"
)

// BenchmarkE1NonLinearFraction regenerates the Section 2 analysis: the
// unprocessed-work fraction across platform sizes and exponents.
func BenchmarkE1NonLinearFraction(b *testing.B) {
	var lastFraction float64
	for i := 0; i < b.N; i++ {
		rows, err := nldlt.FractionSweep([]int{2, 10, 100}, []float64{1.5, 2, 3}, 1000)
		if err != nil {
			b.Fatal(err)
		}
		lastFraction = rows[len(rows)-1].ClosedForm
	}
	b.ReportMetric(lastFraction, "undone-frac-P100-α3")
}

// BenchmarkE2BaselineAllocation solves the Hung–Robertazzi style one-port
// single-installment problem the paper's references [31–35] optimize.
func BenchmarkE2BaselineAllocation(b *testing.B) {
	r := stats.NewRNG(1)
	pl, err := platform.Generate(32, stats.Uniform{Lo: 1, Hi: 10}, r)
	if err != nil {
		b.Fatal(err)
	}
	load := nldlt.Load{N: 1000, Alpha: 2}
	var frac float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := nldlt.OptimalOnePort(pl, load, nil)
		if err != nil {
			b.Fatal(err)
		}
		frac = res.WorkFraction()
	}
	b.ReportMetric(frac, "work-fraction")
}

// BenchmarkE3SampleSort runs the real parallel sample sort of Section 3.1.
func BenchmarkE3SampleSort(b *testing.B) {
	const n = 1 << 17
	xs := make([]float64, n)
	r := stats.NewRNG(2)
	for i := range xs {
		xs[i] = r.Float64()
	}
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, tr, err := samplesort.Sort(xs, samplesort.Config{Workers: 8, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		ratio = tr.MaxBucketRatio()
	}
	b.ReportMetric(ratio, "max-bucket-ratio")
	b.SetBytes(int64(n * 8))
}

// BenchmarkE4HeterogeneousSort runs the Section 3.2 speed-proportional
// variant.
func BenchmarkE4HeterogeneousSort(b *testing.B) {
	const n = 1 << 17
	xs := make([]float64, n)
	r := stats.NewRNG(3)
	for i := range xs {
		xs[i] = r.Float64()
	}
	pl, err := platform.FromSpeeds([]float64{1, 2, 4, 8})
	if err != nil {
		b.Fatal(err)
	}
	var imb float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, ht, err := samplesort.SortHeterogeneous(xs, pl, samplesort.Config{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		imb = ht.Imbalance()
	}
	b.ReportMetric(imb, "sort-time-imbalance")
}

// BenchmarkE5OuterProduct runs all three Section 4.1 strategies on one
// heterogeneous platform.
func BenchmarkE5OuterProduct(b *testing.B) {
	r := stats.NewRNG(4)
	pl, err := platform.Generate(50, stats.Uniform{Lo: 1, Hi: 100}, r)
	if err != nil {
		b.Fatal(err)
	}
	var hetRatio, homkRatio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		het, err := outer.Commhet(pl, 1000)
		if err != nil {
			b.Fatal(err)
		}
		hk, err := outer.CommhomK(pl, 1000, 0.01, 0)
		if err != nil {
			b.Fatal(err)
		}
		hetRatio, homkRatio = het.Ratio, hk.Ratio
	}
	b.ReportMetric(hetRatio, "het-ratio")
	b.ReportMetric(homkRatio, "homk-ratio")
}

// BenchmarkE6RhoBound sweeps the Section 4.1.3 bimodal platforms.
func BenchmarkE6RhoBound(b *testing.B) {
	var rho float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.RhoSweep([]float64{1, 4, 16, 64, 100}, 20, 1000)
		if err != nil {
			b.Fatal(err)
		}
		rho = pts[len(pts)-1].Measured
	}
	b.ReportMetric(rho, "rho-at-k100")
}

// BenchmarkE7MatMulComm simulates the Figure 3 broadcast pattern under
// both layouts and reports the heterogeneous layout's saving.
func BenchmarkE7MatMulComm(b *testing.B) {
	part, err := partition.PeriSum([]float64{1, 2, 4, 9})
	if err != nil {
		b.Fatal(err)
	}
	var saving float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rect, err := matmul.NewRectLayout(96, part)
		if err != nil {
			b.Fatal(err)
		}
		grid, err := matmul.NewBlockCyclic(96, 2, 2, 12)
		if err != nil {
			b.Fatal(err)
		}
		saving = matmul.CommVolume(grid).Total / matmul.CommVolume(rect).Total
	}
	b.ReportMetric(saving, "grid-over-rect-volume")
}

// benchFig4 runs one full panel (paper settings: p = 10..100, 100 trials).
func benchFig4(b *testing.B, profile platform.SpeedProfile) {
	cfg := experiments.DefaultFig4Config(profile)
	var lastHomK, lastHet float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last := pts[len(pts)-1]
		lastHomK, lastHet = last.HomKMean, last.HetMean
	}
	b.ReportMetric(lastHet, "het-ratio-p100")
	b.ReportMetric(lastHomK, "homk-ratio-p100")
}

// BenchmarkFig4a regenerates Figure 4(a): homogeneous speeds.
func BenchmarkFig4a(b *testing.B) { benchFig4(b, platform.ProfileHomogeneous) }

// BenchmarkFig4b regenerates Figure 4(b): Uniform[1,100] speeds.
func BenchmarkFig4b(b *testing.B) { benchFig4(b, platform.ProfileUniform) }

// BenchmarkFig4c regenerates Figure 4(c): LogNormal(0,1) speeds.
func BenchmarkFig4c(b *testing.B) { benchFig4(b, platform.ProfileLogNormal) }

// BenchmarkE11MapReduce runs the real replicated-pair MapReduce product.
func BenchmarkE11MapReduce(b *testing.B) {
	a := matmul.Random(16, 16, 1)
	m := matmul.Random(16, 16, 2)
	var shuffled float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, ctr, err := mapreduce.RunMatMulPairs(a, m, 4, 4, true)
		if err != nil {
			b.Fatal(err)
		}
		shuffled = float64(ctr.ShufflePairs)
	}
	b.ReportMetric(shuffled, "shuffle-pairs")
}

// BenchmarkE12Partition measures the PERI-SUM partitioner itself.
func BenchmarkE12Partition(b *testing.B) {
	r := stats.NewRNG(5)
	areas := stats.SampleN(stats.LogNormal{Mu: 0, Sigma: 1}, r, 100)
	norm, err := partition.Normalize(areas)
	if err != nil {
		b.Fatal(err)
	}
	lb := partition.LowerBound(norm)
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		part, err := partition.PeriSum(areas)
		if err != nil {
			b.Fatal(err)
		}
		ratio = part.SumHalfPerimeters() / lb
	}
	b.ReportMetric(ratio, "C-over-LB")
}

// BenchmarkKernelMatMul measures the real dense kernels (correctness
// anchor for Section 4.2).
func BenchmarkKernelMatMul(b *testing.B) {
	a := matmul.Random(128, 128, 1)
	m := matmul.Random(128, 128, 2)
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := matmul.Naive(a, m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := matmul.ParallelTiled(a, m, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSimulatorThroughput measures the discrete-event engine on a
// demand-driven run (the Comm_hom execution model).
func BenchmarkSimulatorThroughput(b *testing.B) {
	r := stats.NewRNG(6)
	pl, err := platform.Generate(16, stats.Uniform{Lo: 1, Hi: 10}, r)
	if err != nil {
		b.Fatal(err)
	}
	tasks := make([]dessim.Task, 2000)
	for i := range tasks {
		tasks[i] = dessim.Task{Data: 1, Work: 1}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dessim.RunDemandDriven(pl, tasks, dessim.ParallelLinks); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tasks)), "tasks/op")
}

// BenchmarkE13Bottleneck runs the link-bottleneck sweep (the paper's
// "links may become bottleneck resources" motivation).
func BenchmarkE13Bottleneck(b *testing.B) {
	r := stats.NewRNG(7)
	pl, err := platform.Generate(20, stats.Uniform{Lo: 1, Hi: 100}, r)
	if err != nil {
		b.Fatal(err)
	}
	var slowdownAtUnitBW float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Bottleneck(pl, 1000, 0.01, []float64{1})
		if err != nil {
			b.Fatal(err)
		}
		slowdownAtUnitBW = pts[0].HomK / pts[0].Het
	}
	b.ReportMetric(slowdownAtUnitBW, "homk-over-het-makespan")
}

// BenchmarkE14MRDLT measures the divisible MapReduce optimizer (the
// linear case where DLT genuinely pays off).
func BenchmarkE14MRDLT(b *testing.B) {
	// A map-bound instance (small γ) on a strongly heterogeneous platform:
	// the chunk-vector optimization has room to work.
	r := stats.NewRNG(6)
	pl, err := platform.Generate(8, stats.Uniform{Lo: 1, Hi: 20}, r)
	if err != nil {
		b.Fatal(err)
	}
	job := mrdlt.Job{V: 1000, Gamma: 0.1, Reducers: 4, ReducerSpeed: 5}
	var speedup float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := mrdlt.SpeedupOverEqual(pl, job)
		if err != nil {
			b.Fatal(err)
		}
		speedup = s
	}
	b.ReportMetric(speedup, "opt-over-equal")
}

// BenchmarkE15BoundedEgress measures the fluid bounded-multiport model:
// the makespan penalty of a constrained master versus the paper's
// infinite-egress idealization.
func BenchmarkE15BoundedEgress(b *testing.B) {
	r := stats.NewRNG(9)
	pl, err := platform.Generate(10, stats.Uniform{Lo: 0.5, Hi: 4}, r)
	if err != nil {
		b.Fatal(err)
	}
	const n = 200.0
	alloc, err := dlt.OptimalParallel(pl, n)
	if err != nil {
		b.Fatal(err)
	}
	chunks := dlt.Chunks(alloc, n)
	var penalty float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wide, err := dessim.RunSingleRoundBounded(pl, chunks, math.Inf(1))
		if err != nil {
			b.Fatal(err)
		}
		tight, err := dessim.RunSingleRoundBounded(pl, chunks, 1)
		if err != nil {
			b.Fatal(err)
		}
		penalty = tight.Makespan / wide.Makespan
	}
	b.ReportMetric(penalty, "egress1-penalty")
}
