package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/pprof"

	"nlfl/internal/bench"
	"nlfl/internal/results"
)

// runBench drives the measured-performance harness: one sweep per entry
// of the bench.Artifacts registry (tiled kernels, the worker-pool runtime,
// the bandwidth-modeled link, chaos, the fleet service, network topology,
// the capacity model and the closed-loop iterative controller), every
// measured volume cross-checked against the paper's closed forms and every
// trace audited by the invariant oracle, emitting one BENCH_<name>.json
// per artifact (see docs/PERFORMANCE.md). -validate checks existing files
// instead: the kernel and service ones are re-judged, the six
// virtual-clock ones must equal a regeneration at the seed each file
// records. -only narrows
// the run (or the -validate check) to one artifact. Ctrl-C stops the run
// at the next sweep boundary without writing partial artifacts.
func runBench(args []string) error {
	fs := newFlagSet("bench")
	seed := fs.Int64("seed", 42, "random seed (identical seeds reproduce the virtual-clock artifacts byte for byte)")
	out := fs.String("out", ".", "directory for the BENCH_*.json artifacts")
	quick := fs.Bool("quick", false, "reduced CI configuration of the wall-clock sweeps: smaller kernel sizes, fewer service loads and jobs")
	only := fs.String("only", "", "run (or with -validate, check) only this artifact: one of "+bench.Names())
	validate := fs.Bool("validate", false, "check existing BENCH_*.json in -out instead of running: re-judge the wall-clock ones, require the virtual-clock ones to equal a regeneration at the seed each file records (-seed is ignored)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the sweeps to this file (inspect with `go tool pprof`)")
	compare := fs.String("compare", "", "compare a baseline BENCH_kernels.json against a new one (positional arg; defaults to -out's) and print a benchstat-style table instead of running")
	if err := fs.Parse(args); err != nil {
		return err
	}
	arts := bench.Artifacts
	if *only != "" {
		a, err := bench.Lookup(*only)
		if err != nil {
			return err
		}
		arts = []bench.Artifact{a}
	}
	if *compare != "" {
		// `nlfl bench -compare old.json [new.json]`: before/after kernel
		// table, the manual counterpart of the CI comparison step.
		before, err := results.LoadJSON[results.KernelBenchFile](*compare)
		if err != nil {
			return err
		}
		kernels, err := bench.Lookup("kernels")
		if err != nil {
			return err
		}
		newPath := filepath.Join(*out, kernels.File())
		if fs.NArg() > 0 {
			newPath = fs.Arg(0)
		}
		after, err := results.LoadJSON[results.KernelBenchFile](newPath)
		if err != nil {
			return err
		}
		fmt.Printf("kernel comparison: %s → %s\n", *compare, newPath)
		fmt.Print(bench.FormatKernelDeltas(bench.CompareKernels(before, after)))
		return nil
	}

	// The first SIGINT cancels every sweep (they stop at the next boundary
	// with nothing written); a second kills the process the usual way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *validate {
		how, err := bench.ValidateFiles(ctx, *out, arts...)
		if err != nil {
			return err
		}
		for i, a := range arts {
			fmt.Printf("%s: %s, %s\n", a.File(), how[i], a.Gates)
		}
		return nil
	}
	if *cpuprofile != "" {
		pf, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer pf.Close()
		if err := pprof.StartCPUProfile(pf); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	cfg := bench.Config{Seed: *seed, Quick: *quick}
	files, err := bench.Run(ctx, cfg, *out, arts...)
	if err != nil {
		return err
	}
	for i, f := range files {
		if i > 0 {
			fmt.Println()
		}
		printArtifact(f)
	}
	fmt.Println()
	for _, a := range arts {
		fmt.Printf("wrote %s (%s)\n", filepath.Join(*out, a.File()), a.Gates)
	}
	return nil
}

// printArtifact renders one sweep's payload as its table.
func printArtifact(f any) {
	switch f := f.(type) {
	case results.KernelBenchFile:
		printKernels(f)
	case results.RuntimeBenchFile:
		printRuntime(f)
	case results.LinkBenchFile:
		printLink(f)
	case results.ChaosBenchFile:
		printChaos(f)
	case results.ServiceBenchFile:
		printService(f)
	case results.TopologyBenchFile:
		printTopology(f)
	case results.CapacityBenchFile:
		printCapacity(f)
	case results.IterativeBenchFile:
		printIterative(f)
	}
}

// printKernels renders the kernel sweep: per (kernel, n, workers), the
// best-of timing and the implied throughput.
func printKernels(kf results.KernelBenchFile) {
	fmt.Printf("kernels (GOMAXPROCS %d):\n", kf.GOMAXPROCS)
	fmt.Printf("  %-16s %6s %4s %12s %10s\n", "kernel", "n", "wkrs", "seconds", "GFLOPS")
	for _, e := range kf.Entries {
		fmt.Printf("  %-16s %6d %4d %12.6f %10.3f\n", e.Kernel, e.N, e.Workers, e.Seconds, e.GFLOPS)
	}
}

// printRuntime renders the runtime sweep: per (platform, strategy), the
// measured volume next to its closed form and the realized throughput.
func printRuntime(rf results.RuntimeBenchFile) {
	fmt.Printf("runtime (rate %.3g cells/s per unit speed):\n", rf.WorkPerSecond)
	fmt.Printf("  %-12s %-6s %6s %5s %7s %12s %12s %8s %10s\n",
		"platform", "strat", "n", "grid", "chunks", "measured", "predicted", "relerr", "cells/s")
	for _, e := range rf.Entries {
		fmt.Printf("  %-12s %-6s %6d %5d %7d %12.1f %12.1f %8.5f %10.4g\n",
			e.Platform, e.Strategy, e.N, e.Grid, e.Chunks, e.MeasuredVolume, e.PredictedVolume, e.RelError, e.CellsPerSec)
	}
}

// printLink renders the link sweep: per (platform, strategy, bandwidth),
// the shipped volume, the makespan and the comm time hidden by prefetch.
func printLink(lf results.LinkBenchFile) {
	fmt.Printf("link sweep (one-port master link, double-buffered prefetch):\n")
	fmt.Printf("  %-12s %-6s %10s %10s %10s %10s %8s\n",
		"platform", "strat", "bw", "volume", "makespan", "commTime", "overlap")
	for _, e := range lf.Entries {
		fmt.Printf("  %-12s %-6s %10.3g %10.1f %10.4f %10.4f %8.3f\n",
			e.Platform, e.Strategy, e.Bandwidth, e.MeasuredVolume, e.Makespan, e.CommTime, e.OverlapFraction)
	}
}

// printChaos renders the chaos sweep: per scenario, the degraded plan's
// volume ledger and the recovery counters proving the fault bit.
func printChaos(cf results.ChaosBenchFile) {
	fmt.Printf("chaos sweep (rate %.3g cells/s per unit speed, exactly-once ledger):\n", cf.WorkPerSecond)
	fmt.Printf("  %-12s %-12s %-6s %10s %10s %10s %8s %5s %5s %5s %9s\n",
		"platform", "class", "strat", "plan", "replanned", "committed", "wasted", "retry", "spec", "dead", "reclaimed")
	for _, e := range cf.Entries {
		fmt.Printf("  %-12s %-12s %-6s %10.1f %10.1f %10.1f %8.1f %5d %5d %5d %9.0f\n",
			e.Platform, e.Class, e.Strategy, e.PlanVolume, e.ReplannedVolume, e.CommittedVolume,
			e.WastedData, e.RetriedChunks, e.SpeculativeWins, e.DegradedWorkers, e.ReclaimedCells)
	}
}

// printTopology renders the topology sweep: per (topology, bandwidth,
// strategy), the delivered and relayed volumes and the makespan, then
// the measured het-vs-hom crossover per topology.
func printTopology(tf results.TopologyBenchFile) {
	fmt.Printf("topology sweep (rate %.3g cells/s per unit speed, het-vs-hom crossover at %.2gx):\n",
		tf.WorkPerSecond, tf.CrossoverThreshold)
	fmt.Printf("  %-10s %-6s %10s %10s %10s %10s %8s\n",
		"topology", "strat", "bw", "volume", "relayed", "makespan", "overlap")
	for _, e := range tf.Entries {
		fmt.Printf("  %-10s %-6s %10.3g %10.1f %10.1f %10.4f %8.3f\n",
			e.Topology, e.Strategy, e.Bandwidth, e.MeasuredVolume, e.RelayVolume, e.Makespan, e.OverlapFraction)
	}
	for _, topo := range []string{"star", "chain", "two-source"} {
		if bw, ok := tf.Crossovers[topo]; ok {
			if bw > 0 {
				fmt.Printf("  crossover %-10s bw=%.3g (het wins at and below this bandwidth)\n", topo, bw)
			} else {
				fmt.Printf("  crossover %-10s none (het never wins by the threshold)\n", topo)
			}
		}
	}
}

// printCapacity renders the capacity sweep: per slice size, the model's
// forecast next to both observed makespans, then the knee line an
// operator would read off `nlfl recommend`.
func printCapacity(capf results.CapacityBenchFile) {
	fmt.Printf("capacity sweep (alpha %.3g, n=%d, rate %.3g cells/s per unit speed, bw %.3g):\n",
		capf.Alpha, capf.N, capf.WorkPerSecond, capf.Bandwidth)
	fmt.Printf("  %-4s %10s %12s %12s %12s %8s %8s %10s\n",
		"p", "volume", "predicted", "simulated", "measured", "speedup", "gain", "chunk-loss")
	for _, e := range capf.Entries {
		fmt.Printf("  %-4d %10.1f %12.6f %12.6f %12.6f %8.3f %8.4f %10.3f\n",
			e.Workers, e.PredictedVolume, e.PredictedMakespan, e.SimMakespan, e.MeasuredMakespan,
			e.Speedup, e.MarginalGain, e.UnprocessedIfChunked)
	}
	fmt.Printf("  knee %d of %d workers at theta %.2f (best %d, closed-form speedup bound %.3f)\n",
		capf.Knee, len(capf.Speeds), capf.Theta, capf.Best, capf.SpeedupBound)
}

// printIterative renders the closed-loop iterative sweep: the three
// planning policies' ranking on the drifting fleet, then the adaptive
// controller's survival record per fault class.
func printIterative(itf results.IterativeBenchFile) {
	fmt.Printf("iterative sweep (rate %.3g cells/s per unit speed, drifting straggler, deterministic residuals):\n",
		itf.WorkPerSecond)
	fmt.Printf("  %-8s %6s %5s %8s %10s %8s %9s %9s %5s\n",
		"policy", "rounds", "conv", "dominant", "makespan", "replans", "fallbacks", "reanchors", "viol")
	for _, e := range itf.Policies {
		fmt.Printf("  %-8s %6d %5v %8d %10.4f %8d %9d %9d %5d\n",
			e.Policy, e.Rounds, e.Converged, e.Dominant, e.TotalMakespan,
			e.Replans, e.Fallbacks, e.Reanchors, e.Violations)
	}
	fmt.Printf("  adaptive/oracle %.3fx, static/adaptive %.3fx\n",
		itf.AdaptiveOverOracle, itf.StaticOverAdaptive)
	fmt.Printf("  %-10s %6s %5s %5s %8s %9s %10s %5s\n",
		"chaos", "rounds", "conv", "dead", "replans", "reanchors", "commTime", "viol")
	for _, e := range itf.Chaos {
		fmt.Printf("  %-10s %6d %5v %5d %8d %9d %10.5f %5d\n",
			e.Class, e.Rounds, e.Converged, len(e.DeadWorkers),
			e.Replans, e.Reanchors, e.CommTime, e.Violations)
	}
}

// printService renders the fleet-service sweep: per (policy, load), the
// admission counters and latency quantiles of the Poisson run.
func printService(sf results.ServiceBenchFile) {
	fmt.Printf("service sweep (rate %.3g cells/s per unit speed, Poisson arrivals, %d workers):\n",
		sf.WorkPerSecond, len(sf.Speeds))
	fmt.Printf("  %-6s %5s %6s %5s %5s %5s %5s %9s %9s %9s %9s\n",
		"policy", "load", "chaos", "jobs", "rej", "done", "fail", "jobs/s", "p50", "p99", "max")
	for _, e := range sf.Entries {
		fmt.Printf("  %-6s %5.2f %6v %5d %5d %5d %5d %9.2f %9.4f %9.4f %9.4f\n",
			e.Policy, e.LoadFactor, e.Chaos, e.Jobs, e.Rejected, e.Completed, e.Failed,
			e.ThroughputJobsPerSec, e.LatencyP50, e.LatencyP99, e.LatencyMax)
	}
}
