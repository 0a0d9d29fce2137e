package bench

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"nlfl/internal/matmul"
	"nlfl/internal/results"
	"nlfl/internal/stats"
)

// kernelSizes returns the matrix sides measured per configuration. The
// full sweep tops out at n=1024 — the size the CI throughput floor and
// the PERFORMANCE.md before/after numbers are quoted at.
func kernelSizes(quick bool) []int {
	if quick {
		return []int{64, 128}
	}
	return []int{128, 256, 448, 1024}
}

// minReps/minSpan bound the timing loop: each kernel runs at least
// minReps times and until minSpan of accumulated wall time, and the
// fastest single run is reported — the usual defense against one-off
// scheduler noise.
func timeBest(quick bool, run func()) float64 {
	minReps := 3
	minSpan := 60 * time.Millisecond
	if quick {
		minReps = 2
		minSpan = 10 * time.Millisecond
	}
	best := math.Inf(1)
	var total time.Duration
	for rep := 0; rep < minReps || total < minSpan; rep++ {
		start := time.Now()
		run()
		d := time.Since(start)
		total += d
		if s := d.Seconds(); s < best {
			best = s
		}
		if rep > 100 {
			break
		}
	}
	return best
}

// maxAbsDiff returns the largest element-wise deviation between two
// equally-shaped matrices.
func maxAbsDiff(a, b *matmul.Matrix) float64 {
	worst := 0.0
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// RunKernels measures the dense kernels and returns the BENCH_kernels
// payload. Every non-reference kernel is checked element-wise against the
// naive reference on the same seeded inputs; a deviation above 1e-12
// fails the harness rather than producing an unchecked number. A
// cancelled ctx stops the sweep at the next kernel boundary.
func RunKernels(ctx context.Context, cfg Config) (results.KernelBenchFile, error) {
	file := results.KernelBenchFile{
		Schema:     results.BenchKernelsSchema,
		Seed:       cfg.Seed,
		Quick:      cfg.Quick,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: maxProcs(),
	}
	workerCounts := []int{1, 2, 4}
	for _, n := range kernelSizes(cfg.Quick) {
		if err := ctx.Err(); err != nil {
			return file, err
		}
		a := matmul.Random(n, n, cfg.Seed)
		b := matmul.Random(n, n, cfg.Seed+1)
		ref, err := matmul.Naive(a, b)
		if err != nil {
			return file, err
		}
		flops := 2 * float64(n) * float64(n) * float64(n)

		add := func(kernel string, workers int, out *matmul.Matrix, secs float64) error {
			errMax := maxAbsDiff(ref, out)
			if errMax > 1e-12 {
				return fmt.Errorf("bench: kernel %s at n=%d deviates from naive by %g", kernel, n, errMax)
			}
			file.Entries = append(file.Entries, results.KernelBenchEntry{
				Kernel: kernel, N: n, Workers: workers,
				Seconds: secs, GFLOPS: flops / secs / 1e9,
				MaxAbsErr: errMax, Checked: true,
			})
			return nil
		}

		file.Entries = append(file.Entries, results.KernelBenchEntry{
			Kernel: "naive", N: n,
			Seconds: timeBest(cfg.Quick, func() { matmul.Naive(a, b) }),
			GFLOPS:  0, Checked: true,
		})
		last := &file.Entries[len(file.Entries)-1]
		last.GFLOPS = flops / last.Seconds / 1e9

		tiled, err := matmul.Tiled(a, b)
		if err != nil {
			return file, err
		}
		if err := add("tiled", 0, tiled,
			timeBest(cfg.Quick, func() { matmul.Tiled(a, b) })); err != nil {
			return file, err
		}

		for _, w := range workerCounts {
			if err := ctx.Err(); err != nil {
				return file, err
			}
			par, err := matmul.ParallelTiled(a, b, w)
			if err != nil {
				return file, err
			}
			if err := add("parallel-tiled", w, par,
				timeBest(cfg.Quick, func() { matmul.ParallelTiled(a, b, w) })); err != nil {
				return file, err
			}
		}

		// Outer-product kernels: N² work on 2N data — the non-linear
		// workload itself.
		r := stats.NewRNG(cfg.Seed + 2)
		av := stats.SampleN(stats.Uniform{Lo: -1, Hi: 1}, r, n)
		bv := stats.SampleN(stats.Uniform{Lo: -1, Hi: 1}, r, n)
		outerRef := matmul.VectorOuter(av, bv)
		outerFlops := float64(n) * float64(n)
		secs := timeBest(cfg.Quick, func() { matmul.VectorOuter(av, bv) })
		file.Entries = append(file.Entries, results.KernelBenchEntry{
			Kernel: "vector-outer", N: n,
			Seconds: secs, GFLOPS: outerFlops / secs / 1e9, Checked: true,
		})
		into := matmul.New(n, n)
		matmul.OuterInto(into, av, bv, 0, n, 0, n)
		if errMax := maxAbsDiff(outerRef, into); errMax > 0 {
			return file, fmt.Errorf("bench: outer-into at n=%d deviates from reference by %g", n, errMax)
		}
		secs = timeBest(cfg.Quick, func() { matmul.OuterInto(into, av, bv, 0, n, 0, n) })
		file.Entries = append(file.Entries, results.KernelBenchEntry{
			Kernel: "outer-into", N: n,
			Seconds: secs, GFLOPS: outerFlops / secs / 1e9, Checked: true,
		})
	}
	return file, nil
}
