// Quickstart: classify a workload, then plan a heterogeneity-aware
// distribution for it — the library's two core calls.
package main

import (
	"fmt"
	"log"

	"nlfl/internal/core"
	"nlfl/internal/matmul"
	"nlfl/internal/platform"
	"nlfl/internal/runtime"
	"nlfl/internal/stats"
)

func main() {
	// A heterogeneous platform: four workers, speeds 1..8.
	pl, err := platform.FromSpeeds([]float64{1, 2, 4, 8})
	if err != nil {
		log.Fatal(err)
	}

	// 1. Is an N²-cost workload (e.g. an outer product) divisible?
	verdict, err := core.Analyze(core.Workload{Kind: core.Power, N: 10000, Alpha: 2}, pl.P())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(verdict)

	// 2. It is not — so replicate data and partition the computation
	// domain with speed-proportional rectangles instead.
	plan, err := core.PlanOuterProduct(pl, 10000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(plan)
	fmt.Printf("\nheterogeneity-aware layout ships %.1f× less data than MapReduce-style blocks\n",
		plan.Savings())

	// 3. And the plan actually runs: the worker pool computes a small
	// outer product on the plan's rectangles, snapped to the integer
	// grid, verified against the dense kernel.
	const n = 256
	r := stats.NewRNG(1)
	a := stats.SampleN(stats.Uniform{Lo: -1, Hi: 1}, r, n)
	b := stats.SampleN(stats.Uniform{Lo: -1, Hi: 1}, r, n)
	smallPlan, err := runtime.PlanHet(pl, n)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := runtime.Run(smallPlan, a, b, runtime.Options{Speeds: pl.Speeds()})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexecuted the plan on real vectors (n=%d): correct=%v\n",
		n, matmul.VectorOuter(a, b).Equal(rep.Out, 1e-12))
}
