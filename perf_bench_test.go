// Benchmarks for the measured-performance layer: the cache-blocked
// matmul kernels and the demand-driven worker-pool runtime. Unlike the
// E1–E12 benches in bench_test.go, which regenerate analytic tables,
// these time real data movement and arithmetic; each reports the
// headline metric (GFLOPS, measured communication volume) via
// b.ReportMetric so `go test -bench Perf` doubles as a mini harness.
// The full sweep with schema'd artifacts is `nlfl bench` (see
// docs/PERFORMANCE.md).
package nlfl_test

import (
	"fmt"
	"testing"

	"nlfl/internal/matmul"
	"nlfl/internal/platform"
	nrt "nlfl/internal/runtime"
	"nlfl/internal/stats"
)

// flops is the classical matmul operation count for an n×n product.
func flops(n int) float64 { return 2 * float64(n) * float64(n) * float64(n) }

func BenchmarkPerfKernelNaive(b *testing.B) {
	for _, n := range []int{128, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			a := matmul.Random(n, n, 1)
			c := matmul.Random(n, n, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := matmul.Naive(a, c); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(flops(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
		})
	}
}

func BenchmarkPerfKernelTiled(b *testing.B) {
	for _, n := range []int{128, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			a := matmul.Random(n, n, 1)
			c := matmul.Random(n, n, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := matmul.Tiled(a, c); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(flops(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
		})
	}
}

func BenchmarkPerfKernelParallelTiled(b *testing.B) {
	n := 256
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			a := matmul.Random(n, n, 1)
			c := matmul.Random(n, n, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := matmul.ParallelTiled(a, c, workers); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(flops(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
		})
	}
}

func BenchmarkPerfKernelOuterInto(b *testing.B) {
	n := 512
	r := stats.NewRNG(3)
	av := stats.SampleN(stats.Uniform{Lo: -1, Hi: 1}, r, n)
	bv := stats.SampleN(stats.Uniform{Lo: -1, Hi: 1}, r, n)
	out := matmul.New(n, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matmul.OuterInto(out, av, bv, 0, n, 0, n)
	}
	b.ReportMetric(float64(n)*float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gcells/s")
}

// BenchmarkPerfRuntimeStrategies pushes a real outer product through the
// worker pool under each distribution strategy and reports the measured
// per-run communication volume (in vector elements) — the quantity the
// paper's Comm_hom / Comm_hom/k / Comm_het closed forms predict.
func BenchmarkPerfRuntimeStrategies(b *testing.B) {
	const n = 128
	speeds := []float64{1, 3, 5, 7} // snapped: Σs/s₁ = 16
	pl, err := platform.FromSpeeds(speeds)
	if err != nil {
		b.Fatal(err)
	}
	r := stats.NewRNG(42)
	av := stats.SampleN(stats.Uniform{Lo: -1, Hi: 1}, r, n)
	bv := stats.SampleN(stats.Uniform{Lo: -1, Hi: 1}, r, n)

	plans := map[string]func() (*nrt.StrategyPlan, error){
		"hom":  func() (*nrt.StrategyPlan, error) { return nrt.PlanHom(pl, n) },
		"homk": func() (*nrt.StrategyPlan, error) { return nrt.PlanHomK(pl, n, 0.01, 0) },
		"het":  func() (*nrt.StrategyPlan, error) { return nrt.PlanHet(pl, n) },
	}
	for _, name := range []string{"hom", "homk", "het"} {
		b.Run(name, func(b *testing.B) {
			plan, err := plans[name]()
			if err != nil {
				b.Fatal(err)
			}
			opts := nrt.Options{
				Speeds: speeds,
				// A high rate keeps the token bucket from dominating the
				// bench; volumes are rate-independent.
				WorkPerSecond: 1e8,
				Burst:         1e5,
			}
			var volume float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := nrt.Run(plan, av, bv, opts)
				if err != nil {
					b.Fatal(err)
				}
				volume = rep.DataVolume
			}
			b.ReportMetric(volume, "elems-moved")
		})
	}
}

// BenchmarkPerfRuntimeBandwidth runs hom and het through the worker pool
// under a constrained one-port master link with double-buffered prefetch
// and reports the measured makespan and the fraction of communication
// hidden under compute — the quantity the bandwidth model adds on top of
// the volume ledger. On the heterogeneous platform the het plan ships
// fewer elements, so under a tight link its makespan/op is the smaller
// one: the paper's Figure-2 trade-off as a benchmark.
func BenchmarkPerfRuntimeBandwidth(b *testing.B) {
	const (
		n  = 128
		bw = 5e4 // elements/s: the link, not the arithmetic, is the bottleneck
	)
	speeds := []float64{1, 3, 5, 7}
	pl, err := platform.FromSpeeds(speeds)
	if err != nil {
		b.Fatal(err)
	}
	r := stats.NewRNG(42)
	av := stats.SampleN(stats.Uniform{Lo: -1, Hi: 1}, r, n)
	bv := stats.SampleN(stats.Uniform{Lo: -1, Hi: 1}, r, n)

	plans := map[string]func() (*nrt.StrategyPlan, error){
		"hom": func() (*nrt.StrategyPlan, error) { return nrt.PlanHom(pl, n) },
		"het": func() (*nrt.StrategyPlan, error) { return nrt.PlanHet(pl, n) },
	}
	for _, name := range []string{"hom", "het"} {
		b.Run(name, func(b *testing.B) {
			plan, err := plans[name]()
			if err != nil {
				b.Fatal(err)
			}
			opts := nrt.Options{
				Speeds:        speeds,
				WorkPerSecond: 2e6,
				Burst:         200, // keep link waits from banking compute credit
				Link:          nrt.Link{ElemsPerSecond: bw},
				Prefetch:      true,
			}
			var makespan, overlap float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := nrt.Run(plan, av, bv, opts)
				if err != nil {
					b.Fatal(err)
				}
				makespan, overlap = rep.Makespan, rep.OverlapFraction
			}
			b.ReportMetric(makespan*1e3, "ms-makespan")
			b.ReportMetric(overlap, "overlap")
		})
	}
}
