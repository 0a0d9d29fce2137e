package main

import (
	"fmt"
	"os"

	"nlfl/internal/dessim"
	"nlfl/internal/dlt"
	"nlfl/internal/experiments"
	"nlfl/internal/faults"
	"nlfl/internal/platform"
	"nlfl/internal/results"
	"nlfl/internal/samplesort"
	"nlfl/internal/trace"
)

// runFaults is the robustness experiment of the Section 1.1 argument made
// executable: the same deterministic fault scenarios thrown at the
// resilient demand-driven executor, the static single-round DLT schedule,
// and the failure-aware re-planner.
func runFaults(args []string) error {
	fs := newFlagSet("faults")
	scenario := fs.String("scenario", "crash", "fault scenario: crash, straggler or flaky-link")
	p := fs.Int("p", 8, "number of workers")
	tasks := fs.Int("tasks", 64, "demand-driven pool size")
	dist := fs.String("dist", "uniform", "speed profile")
	seed := fs.Int64("seed", 1, "random seed (identical seeds reproduce identical runs)")
	out := fs.String("out", "", "optional path to save the run as a JSON record")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var data any
	switch *scenario {
	case "crash":
		profile, err := platform.ParseProfile(*dist)
		if err != nil {
			return err
		}
		if data, err = faultsCrash(profile, *p, *tasks, *seed); err != nil {
			return err
		}
	case "straggler", "flaky-link":
		pl, profile, err := randomPlatform(*p, *dist, *seed, 0)
		if err != nil {
			return err
		}
		pool := taskPool(*tasks)
		base, sc, err := faultScenario(pl, pool, *scenario, *seed)
		if err != nil {
			return err
		}
		on := fmt.Sprintf("%d workers, %s speeds, seed %d", *p, profile, *seed)
		if *scenario == "straggler" {
			data, err = faultsStraggler(pl, pool, base, sc, on)
		} else {
			data, err = faultsFlakyLink(pl, pool, base, sc, on)
		}
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown scenario %q (want crash, straggler or flaky-link)", *scenario)
	}
	if *out == "" {
		return nil
	}
	rec := results.Record{
		Experiment: "faults-" + *scenario,
		Params:     map[string]float64{"seed": float64(*seed)},
		Data:       data,
	}
	if err := results.Save(*out, rec); err != nil {
		return err
	}
	fmt.Println("wrote", *out)
	return nil
}

// taskPool is the demand-driven pool of `faults` and `trace`: n tasks of
// one unit of data and two of work.
func taskPool(n int) []dessim.Task {
	pool := make([]dessim.Task, n)
	for i := range pool {
		pool[i] = dessim.Task{Data: 1, Work: 2}
	}
	return pool
}

// faultScenario runs pool fault-free on the resilient executor and builds
// the named scenario from that baseline's makespan T, so its faults land
// mid-flight: crashes at 0.6·T (one worker, two past four), one straggler
// at 5% speed over [0.2·T, 10·T], or one link dropping 70% of transfers
// over [0, 0.8·T]. It returns the baseline with the scenario.
func faultScenario(pl *platform.Platform, pool []dessim.Task, name string, seed int64) (*faults.Report, faults.Scenario, error) {
	base, err := faults.RunResilientDemandDriven(pl, pool, faults.Scenario{}, faults.ResilientOptions{})
	if err != nil {
		return nil, faults.Scenario{}, err
	}
	var sc faults.Scenario
	p, t := pl.P(), base.Makespan
	switch name {
	case "none":
	case "crash":
		k := 1
		if p > 4 {
			k = 2
		}
		sc, err = faults.RandomCrashes(p, k, 0.6*t, seed)
	case "straggler":
		sc, err = faults.RandomStragglers(p, 1, 0.05, 0.2*t, 10*t, seed)
	case "flaky-link":
		sc, err = faults.FlakyLinks(p, 1, 0.7, 0, 0.8*t, seed)
	default:
		err = fmt.Errorf("unknown scenario %q (want none, crash, straggler or flaky-link)", name)
	}
	return base, sc, err
}

// faultsCrash sweeps permanent-crash counts: demand-driven inflation vs
// the single-round DLT's forfeited allocation, plus the re-planner's
// volume price over the survivors.
func faultsCrash(profile platform.SpeedProfile, p, tasks int, seed int64) ([]experiments.FaultSweepRow, error) {
	cfg := experiments.DefaultFaultSweepConfig()
	cfg.P = p
	cfg.Profile = profile
	cfg.Tasks = tasks
	cfg.Seed = seed
	cfg.Crashes = nil
	for k := 0; k < p && k <= 3; k++ {
		cfg.Crashes = append(cfg.Crashes, k)
	}
	rows, err := experiments.FaultSweep(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Printf("permanent crashes on %d workers (%s speeds, seed %d), %d-task pool:\n\n",
		p, profile, seed, tasks)
	fmt.Println("single-round DLT has no feedback channel: a dead worker forfeits its whole")
	fmt.Println("allocation. The demand-driven pool loses at most the in-flight chunks.")
	fmt.Println()
	fmt.Printf("%7s %10s %10s %10s %7s %9s | %9s | %9s %8s\n",
		"crashes", "makespan", "inflation", "extraComm", "reexec", "ddLost", "dltLost", "replanVol", "vs bound")
	for _, r := range rows {
		replan := "—"
		ratio := "—"
		if r.Metrics.Crashes > 0 {
			replan = fmt.Sprintf("%9.1f", r.ReplanVolume)
			ratio = fmt.Sprintf("%8.3f", r.Metrics.ReplanVolumeRatio)
		}
		fmt.Printf("%7d %10.3f %10.3f %10.2f %7d %9.2f | %9.2f | %9s %8s\n",
			r.Metrics.Crashes, r.DDMakespan, r.Metrics.MakespanInflation,
			r.DDExtraComm, r.Metrics.Reexecutions, r.DDLostWork, r.DLTLostWork,
			replan, ratio)
	}
	fmt.Println("\nreplan volume is the post-crash Comm_hom/k plan over the survivors;")
	fmt.Println("`vs bound` divides it by the survivor bound 2N·√(Σ sᵢ/s₁).")
	return rows, nil
}

// faultsStraggler slows one worker mid-run (sc) and shows speculative
// re-execution recovering most of the loss; on names the platform.
func faultsStraggler(pl *platform.Platform, pool []dessim.Task, base *faults.Report, sc faults.Scenario, on string) (any, error) {
	plain, err := faults.RunResilientDemandDriven(pl, pool, sc, faults.ResilientOptions{})
	if err != nil {
		return nil, err
	}
	spec, err := faults.RunResilientDemandDriven(pl, pool, sc, faults.ResilientOptions{Speculate: true})
	if err != nil {
		return nil, err
	}
	fmt.Printf("one worker slowed to 5%% from t=%.2f on (%s):\n\n", sc.Events[0].Time, on)
	fmt.Printf("%-22s %10s %9s %8s %11s\n", "executor", "makespan", "backups", "wasted", "extraComm")
	fmt.Printf("%-22s %10.3f %9d %8.2f %11.2f\n", "fault-free baseline", base.Makespan, base.Backups, base.WastedWork, base.ExtraComm)
	fmt.Printf("%-22s %10.3f %9d %8.2f %11.2f\n", "straggler, no backups", plain.Makespan, plain.Backups, plain.WastedWork, plain.ExtraComm)
	fmt.Printf("%-22s %10.3f %9d %8.2f %11.2f\n", "straggler + speculation", spec.Makespan, spec.Backups, spec.WastedWork, spec.ExtraComm)
	fmt.Println("\nspeculation trades duplicated work and shipping for makespan — the")
	fmt.Println("no-free-lunch price of straggler tolerance.")
	type row struct {
		Label  string         `json:"label"`
		Report *faults.Report `json:"report"`
	}
	return []row{{"baseline", base}, {"straggler", plain}, {"speculation", spec}}, nil
}

// faultsFlakyLink drops transfers on one link for a window (sc) and shows
// the retry/backoff machinery paying for completion with extra shipping;
// on names the platform.
func faultsFlakyLink(pl *platform.Platform, pool []dessim.Task, base *faults.Report, sc faults.Scenario, on string) (*faults.Report, error) {
	rep, err := faults.RunResilientDemandDriven(pl, pool, sc, faults.ResilientOptions{})
	if err != nil {
		return nil, err
	}
	fmt.Printf("one link drops 70%% of transfers until t=%.2f (%s):\n\n", sc.Events[0].Until, on)
	fmt.Printf("%-18s %10s %9s %8s %11s\n", "executor", "makespan", "drops", "retries", "extraComm")
	fmt.Printf("%-18s %10.3f %9d %8d %11.2f\n", "fault-free", base.Makespan, base.DroppedTransfers, base.Retries, base.ExtraComm)
	fmt.Printf("%-18s %10.3f %9d %8d %11.2f\n", "flaky link", rep.Makespan, rep.DroppedTransfers, rep.Retries, rep.ExtraComm)
	fmt.Println("\nevery dropped shipment is retried with capped exponential backoff; the")
	fmt.Println("job completes at the price of the wasted volume above.")
	return rep, nil
}

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
	if *scenario != "none" && (*executor == "demand" || *executor == "dlt" || *executor == "sort") {
		return fmt.Errorf("executor %q models no faults; -scenario only applies to resilient and single-round", *executor)
	}
	if *p < 2 || *tasks < 1 {
		return fmt.Errorf("need ≥ 2 workers and ≥ 1 task, got p=%d tasks=%d", *p, *tasks)
	}
	pl, profile, err := randomPlatform(*p, *dist, *seed, 0)
	if err != nil {
		return err
	}

	pool := taskPool(*tasks)
	work := 2 * float64(*tasks)
	var tr *trace.Timeline
	var exp *trace.Expect
	switch *executor {
	case "resilient":
		_, sc, err := faultScenario(pl, pool, *scenario, *seed)
		if err != nil {
			return err
		}
		rep, err := faults.RunResilientDemandDriven(pl, pool, sc, faults.ResilientOptions{Speculate: *scenario == "straggler"})
		if err != nil {
			return err
		}
		tr, exp = rep.Trace, &trace.Expect{HasWork: true, TotalWork: work, ProcessedWork: work,
			LostWork: rep.LostWork, WastedWork: rep.WastedWork, HasComm: true, ShippedData: rep.DataShipped}
	case "single-round":
		_, sc, err := faultScenario(pl, pool, *scenario, *seed)
		if err != nil {
			return err
		}
		rep, err := faults.RunSingleRoundUnderFaults(pl, faults.LinearDLTChunks(pl, float64(*tasks), work), sc)
		if err != nil {
			return err
		}
		tr, exp = rep.Trace, &trace.Expect{HasWork: true, TotalWork: work, ProcessedWork: rep.CompletedWork,
			UnprocessedWork: rep.LostWork, LostWork: rep.LostWork}
	case "demand":
		rep, err := faults.RunResilientDemandDriven(pl, pool, faults.Scenario{}, faults.ResilientOptions{Speculate: true})
		if err != nil {
			return err
		}
		tr, exp = rep.Trace, &trace.Expect{HasWork: true, TotalWork: work, ProcessedWork: work,
			WastedWork: rep.WastedWork, HasComm: true, ShippedData: rep.DataShipped}
	case "dlt":
		const n = 100.0
		a, err := dlt.OptimalParallel(pl, n)
		if err != nil {
			return err
		}
		chunks, err := dlt.MultiRoundUniform(a, n, max(*tasks/pl.P(), 1))
		if err != nil {
			return err
		}
		if tr, err = dlt.SimulatedTimeline(pl, chunks, dessim.ParallelLinks); err != nil {
			return err
		}
		exp = &trace.Expect{HasWork: true, TotalWork: n, ProcessedWork: n, HasComm: true, ShippedData: n}
	case "sort":
		n := *tasks * 1024
		cost, err := samplesort.SimulateDistributed(pl, n, samplesort.Config{}, dessim.ParallelLinks)
		if err != nil {
			return err
		}
		// The bucket shipments are the whole input, once each.
		tr, exp = cost.Trace, &trace.Expect{HasComm: true, ShippedData: float64(n)}
	default:
		return fmt.Errorf("unknown executor %q (want resilient, single-round, demand, dlt or sort)", *executor)
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
