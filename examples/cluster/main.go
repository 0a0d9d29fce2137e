// Cluster walks one heterogeneous platform through the paper's whole
// story: a linear job (DLT works), a sort (works after pre-processing), a
// quadratic job (chunking provably fails; partition instead), and a
// demand-driven master with a straggler and a crash (why demand-driven
// scheduling earns its keep).
package main

import (
	"fmt"
	"log"

	"nlfl/internal/core"
	"nlfl/internal/dessim"
	"nlfl/internal/faults"
	"nlfl/internal/platform"
	"nlfl/internal/samplesort"
	"nlfl/internal/stats"
)

func main() {
	r := stats.NewRNG(2026)
	pl, err := platform.Generate(6, stats.Uniform{Lo: 1, Hi: 10}, r)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cluster: %v\n\n", pl)

	// 1. Linear job: the divisible case. One Recommend call plans it.
	lin, err := core.Recommend(pl, core.Workload{Kind: core.Linear, N: 1e6})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("― linear scan job ―\n", lin.String(), "\n")

	// 2. Sorting: almost divisible. Plan, then actually sort.
	srt, err := core.Recommend(pl, core.Workload{Kind: core.LogLinear, N: 1 << 17})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("― sort job ―\n", srt.String())
	keys := stats.SampleN(stats.Uniform{Lo: 0, Hi: 1}, r, 1<<17)
	_, tr, err := samplesort.SortHeterogeneous(keys, pl, samplesort.Config{Seed: 9})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("executed: buckets %v\n\n", tr.BucketSizes)

	// 3. Quadratic job: not divisible — partition the computation domain.
	quad, err := core.Recommend(pl, core.Workload{Kind: core.Power, N: 5e4, Alpha: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("― pairwise-interaction job (N² cost) ―\n", quad.String(), "\n")

	// 4. Operations reality: a straggler appears and a node dies.
	tasks := make([]dessim.Task, 64)
	for i := range tasks {
		tasks[i] = dessim.Task{Work: 1}
	}
	straggler, err := platform.FromSpeeds([]float64{0.02, 5, 5, 5, 5, 5})
	if err != nil {
		log.Fatal(err)
	}
	plain, err := faults.RunResilientDemandDriven(straggler, tasks, faults.Scenario{}, faults.ResilientOptions{})
	if err != nil {
		log.Fatal(err)
	}
	spec, err := faults.RunResilientDemandDriven(straggler, tasks, faults.Scenario{}, faults.ResilientOptions{Speculate: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("― operations: straggler mitigation ―")
	fmt.Printf("demand-driven makespan %.3g; with speculative backups %.3g (%d backups, %.3g work wasted)\n",
		plain.Makespan, spec.Makespan, spec.Backups, spec.WastedWork)

	fail, err := faults.RunResilientDemandDriven(straggler, tasks, faults.SingleCrash(1, 0.5), faults.ResilientOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("with worker 2 dying at t=0.5: makespan %.3g, in-flight re-executions %d\n",
		fail.Makespan, fail.Reexecutions)
}
