package experiments

import (
	"fmt"
	"math"

	"nlfl/internal/dessim"
	"nlfl/internal/dlt"
	"nlfl/internal/faults"
	"nlfl/internal/platform"
	"nlfl/internal/plot"
)

// AdaptivityRow is one slowdown level of the E16 experiment: the makespan
// of a static optimal DLT schedule versus a demand-driven pool when one
// worker's speed drops mid-run.
type AdaptivityRow struct {
	// Factor is the slowed worker's residual speed fraction (1 = healthy).
	Factor float64
	// Static is the static schedule's makespan; Demand the demand-driven
	// pool's; Clean the healthy-platform reference.
	Static, Demand, Clean float64
}

// Adaptivity quantifies the paper's Section 1.1 praise of MapReduce —
// "re-assign tasks that slow down the process" — against classical DLT's
// static allocation. A linear load of size n is scheduled on p
// homogeneous workers; at 30% of the nominal makespan, worker 0's speed
// drops to `factor` for good (a faults.Straggler window ending at +Inf).
// The static single-round optimal, run by faults.RunSingleRoundUnderFaults,
// cannot react (its slowed worker keeps its whole chunk); the
// demand-driven pool of `blocks` identical tasks, run by
// faults.RunResilientDemandDriven, reroutes automatically.
func Adaptivity(p int, n float64, blocks int, factors []float64) ([]AdaptivityRow, error) {
	pl, err := platform.Homogeneous(p, 1, 1)
	if err != nil {
		return nil, err
	}
	alloc, err := dlt.OptimalParallel(pl, n)
	if err != nil {
		return nil, err
	}
	chunks := dlt.Chunks(alloc, n)
	tasks := make([]dessim.Task, blocks)
	for i := range tasks {
		tasks[i] = dessim.Task{Data: n / float64(blocks), Work: n / float64(blocks)}
	}
	clean, err := dessim.RunSingleRound(pl, chunks, dessim.ParallelLinks)
	if err != nil {
		return nil, err
	}
	slowAt := 0.3 * clean.Makespan

	rows := make([]AdaptivityRow, 0, len(factors))
	for _, f := range factors {
		if f <= 0 || f > 1 || math.IsNaN(f) {
			return nil, fmt.Errorf("experiments: invalid slowdown factor %v", f)
		}
		sc := faults.Scenario{Events: []faults.Event{
			{Kind: faults.Straggler, Worker: 0, Time: slowAt, Until: math.Inf(1), Factor: f},
		}}
		static, err := faults.RunSingleRoundUnderFaults(pl, chunks, sc)
		if err != nil {
			return nil, err
		}
		demand, err := faults.RunResilientDemandDriven(pl, tasks, sc, faults.ResilientOptions{})
		if err != nil {
			return nil, err
		}
		rows = append(rows, AdaptivityRow{
			Factor: f,
			Static: static.Makespan,
			Demand: demand.Makespan,
			Clean:  clean.Makespan,
		})
	}
	return rows, nil
}

// AdaptivityTable renders the sweep.
func AdaptivityTable(rows []AdaptivityRow) *plot.Table {
	t := plot.NewTable("residual speed", "static DLT", "demand-driven", "healthy ref")
	for _, r := range rows {
		t.AddRowf(r.Factor, r.Static, r.Demand, r.Clean)
	}
	return t
}
