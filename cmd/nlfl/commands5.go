package main

import (
	"fmt"
	"os"

	"nlfl/internal/dessim"
	"nlfl/internal/dlt"
	"nlfl/internal/faults"
	"nlfl/internal/platform"
	"nlfl/internal/samplesort"
	"nlfl/internal/stats"
	"nlfl/internal/trace"
)

// runTrace executes one simulator run, audits its structured trace with
// the invariant oracle, and renders it — ASCII Gantt on stdout, optional
// Chrome trace_event JSON (chrome://tracing, ui.perfetto.dev) on disk.
func runTrace(args []string) error {
	fs := newFlagSet("trace")
	executor := fs.String("executor", "resilient", "executor to trace: resilient, single-round, demand, dlt or sort")
	scenario := fs.String("scenario", "none", "fault scenario (resilient/single-round only): none, crash, straggler or flaky-link")
	p := fs.Int("p", 4, "number of workers")
	tasks := fs.Int("tasks", 16, "task/chunk pool size")
	dist := fs.String("dist", "uniform", "speed profile")
	seed := fs.Int64("seed", 1, "random seed (identical seeds reproduce identical traces)")
	width := fs.Int("w", 72, "gantt chart width in columns")
	out := fs.String("out", "", "optional path for the Chrome trace_event JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	profile, err := platform.ParseProfile(*dist)
	if err != nil {
		return err
	}
	if *p < 2 || *tasks < 1 {
		return fmt.Errorf("need ≥ 2 workers and ≥ 1 task, got p=%d tasks=%d", *p, *tasks)
	}
	pl, err := platform.Generate(*p, profile.Distribution(0), stats.NewRNG(*seed))
	if err != nil {
		return err
	}

	var tr *trace.Timeline
	var exp *trace.Expect
	switch *executor {
	case "resilient":
		tr, exp, err = traceResilient(pl, *tasks, *scenario, *seed)
	case "single-round":
		tr, exp, err = traceSingleRound(pl, *tasks, *scenario, *seed)
	case "demand":
		tr, exp, err = traceDemand(pl, *tasks, *scenario)
	case "dlt":
		tr, exp, err = traceDLT(pl, *tasks, *scenario)
	case "sort":
		tr, exp, err = traceSort(pl, *tasks, *scenario)
	default:
		return fmt.Errorf("unknown executor %q (want resilient, single-round, demand, dlt or sort)", *executor)
	}
	if err != nil {
		return err
	}

	fmt.Printf("%s executor, %d workers (%s speeds, seed %d), %d tasks, scenario %s:\n\n",
		*executor, *p, profile, *seed, *tasks, *scenario)
	fmt.Print(tr.Gantt(*width))
	fmt.Println("\n  -  transfer   %  dropped   #  compute   w  wasted   x  killed   !  fault")

	m := trace.MetricsOf(tr)
	fmt.Printf("\nmakespan     %10.4f    comm volume %10.2f    spans %6d\n", m.Makespan, m.CommVolume, m.Spans)
	fmt.Printf("useful work  %10.2f    wasted work %10.2f    lost  %6.2f\n", m.UsefulWork, m.WastedWork, m.LostWork)
	fmt.Printf("compute time %10.4f    comm time   %10.4f    idle  %6.4g\n", m.ComputeTime, m.CommTime, m.IdleTime)
	fmt.Printf("utilization  %10.3f    waste frac  %10.3f    faults %5d\n", m.Utilization, m.WastedWorkFraction, m.Faults)

	if err := trace.Must(trace.Check(tr, exp)); err != nil {
		return err
	}
	fmt.Printf("\ninvariants: ok (%d spans checked)\n", m.Spans)

	if *out != "" {
		b, err := tr.ChromeTrace()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, b, 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", *out)
	}
	return nil
}

// traceScenario builds the named fault scenario, scaled to the fault-free
// makespan so faults land mid-flight.
func traceScenario(name string, p int, makespan float64, seed int64) (faults.Scenario, error) {
	switch name {
	case "none":
		return faults.Scenario{}, nil
	case "crash":
		k := 1
		if p > 4 {
			k = 2
		}
		return faults.RandomCrashes(p, k, 0.6*makespan, seed)
	case "straggler":
		return faults.RandomStragglers(p, 1, 0.05, 0.2*makespan, 10*makespan, seed)
	case "flaky-link":
		return faults.FlakyLinks(p, 1, 0.7, 0, 0.8*makespan, seed)
	default:
		return faults.Scenario{}, fmt.Errorf("unknown scenario %q (want none, crash, straggler or flaky-link)", name)
	}
}

// rejectScenario refuses fault flags on fault-free executors.
func rejectScenario(name, executor string) error {
	if name != "none" {
		return fmt.Errorf("executor %q models no faults; -scenario only applies to resilient and single-round", executor)
	}
	return nil
}

func tracePool(tasks int) ([]dessim.Task, float64, float64) {
	pool := make([]dessim.Task, tasks)
	totalData, totalWork := 0.0, 0.0
	for i := range pool {
		pool[i] = dessim.Task{Data: 1, Work: 2}
		totalData++
		totalWork += 2
	}
	return pool, totalData, totalWork
}

func traceResilient(pl *platform.Platform, tasks int, scenario string, seed int64) (*trace.Timeline, *trace.Expect, error) {
	pool, _, totalWork := tracePool(tasks)
	base, err := faults.RunResilientDemandDriven(pl, pool, faults.Scenario{}, faults.ResilientOptions{})
	if err != nil {
		return nil, nil, err
	}
	sc, err := traceScenario(scenario, pl.P(), base.Makespan, seed)
	if err != nil {
		return nil, nil, err
	}
	rep, err := faults.RunResilientDemandDriven(pl, pool, sc, faults.ResilientOptions{Speculate: scenario == "straggler"})
	if err != nil {
		return nil, nil, err
	}
	return rep.Trace, &trace.Expect{
		HasWork:       true,
		TotalWork:     totalWork,
		ProcessedWork: totalWork,
		LostWork:      rep.LostWork,
		WastedWork:    rep.WastedWork,
		HasComm:       true,
		ShippedData:   rep.DataShipped,
	}, nil
}

func traceSingleRound(pl *platform.Platform, tasks int, scenario string, seed int64) (*trace.Timeline, *trace.Expect, error) {
	pool, totalData, totalWork := tracePool(tasks)
	base, err := faults.RunResilientDemandDriven(pl, pool, faults.Scenario{}, faults.ResilientOptions{})
	if err != nil {
		return nil, nil, err
	}
	sc, err := traceScenario(scenario, pl.P(), base.Makespan, seed)
	if err != nil {
		return nil, nil, err
	}
	chunks := faults.LinearDLTChunks(pl, totalData, totalWork)
	rep, err := faults.RunSingleRoundUnderFaults(pl, chunks, sc)
	if err != nil {
		return nil, nil, err
	}
	return rep.Trace, &trace.Expect{
		HasWork:         true,
		TotalWork:       totalWork,
		ProcessedWork:   rep.CompletedWork,
		UnprocessedWork: rep.LostWork,
		LostWork:        rep.LostWork,
	}, nil
}

func traceDemand(pl *platform.Platform, tasks int, scenario string) (*trace.Timeline, *trace.Expect, error) {
	if err := rejectScenario(scenario, "demand"); err != nil {
		return nil, nil, err
	}
	pool, _, totalWork := tracePool(tasks)
	rep, err := faults.RunResilientDemandDriven(pl, pool, faults.Scenario{}, faults.ResilientOptions{Speculate: true})
	if err != nil {
		return nil, nil, err
	}
	return rep.Trace, &trace.Expect{
		HasWork:       true,
		TotalWork:     totalWork,
		ProcessedWork: totalWork,
		WastedWork:    rep.WastedWork,
		HasComm:       true,
		ShippedData:   rep.DataShipped,
	}, nil
}

func traceDLT(pl *platform.Platform, tasks int, scenario string) (*trace.Timeline, *trace.Expect, error) {
	if err := rejectScenario(scenario, "dlt"); err != nil {
		return nil, nil, err
	}
	const n = 100.0
	a, err := dlt.OptimalParallel(pl, n)
	if err != nil {
		return nil, nil, err
	}
	rounds := tasks / pl.P()
	if rounds < 1 {
		rounds = 1
	}
	chunks, err := dlt.MultiRoundUniform(a, n, rounds)
	if err != nil {
		return nil, nil, err
	}
	tr, err := dlt.SimulatedTimeline(pl, chunks, dessim.ParallelLinks)
	if err != nil {
		return nil, nil, err
	}
	return tr, &trace.Expect{
		HasWork:       true,
		TotalWork:     n,
		ProcessedWork: n,
		HasComm:       true,
		ShippedData:   n,
	}, nil
}

func traceSort(pl *platform.Platform, tasks int, scenario string) (*trace.Timeline, *trace.Expect, error) {
	if err := rejectScenario(scenario, "sort"); err != nil {
		return nil, nil, err
	}
	n := tasks * 1024
	cost, err := samplesort.SimulateDistributed(pl, n, samplesort.Config{}, dessim.ParallelLinks)
	if err != nil {
		return nil, nil, err
	}
	// The bucket shipments are the whole input, once each.
	return cost.Trace, &trace.Expect{
		HasComm:     true,
		ShippedData: float64(n),
	}, nil
}
