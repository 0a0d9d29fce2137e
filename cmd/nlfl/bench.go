package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"runtime/pprof"

	"nlfl/internal/bench"
	"nlfl/internal/results"
)

// benchContext is the cancellation root of every sweep: the first SIGINT
// cancels it (sweeps stop at the next boundary with nothing written), a
// second SIGINT kills the process the usual way.
func benchContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt)
}

// runBench drives the measured-performance harness: tiled kernels, the
// demand-driven worker-pool runtime across platforms and strategies, the
// bandwidth-modeled link sweep, the chaos sweep (one injected fault
// scenario per class, survived with a clean exactly-once ledger), and
// the multi-tenant fleet-service sweep (Poisson arrivals per policy and
// load, with a chaos-isolation entry), the network-topology sweep, the
// capacity-model validation sweep, and the closed-loop iterative sweep
// (three planning policies on a drifting fleet plus one adaptive run per
// fault class) — every measured volume cross-checked against the paper's
// closed forms and every trace audited by the invariant oracle —
// emitting the eight BENCH_*.json artifacts (see docs/PERFORMANCE.md).
// Ctrl-C stops the run at the next sweep boundary without writing
// partial artifacts.
func runBench(args []string) error {
	fs := newFlagSet("bench")
	seed := fs.Int64("seed", 42, "random seed (identical seeds reproduce identical geometry and volumes)")
	out := fs.String("out", ".", "directory for the BENCH_*.json artifacts")
	quick := fs.Bool("quick", false, "reduced CI configuration: smaller sizes, fewer platforms")
	rate := fs.Float64("rate", 0, "token-bucket rate scale in cells/second for a speed-1 worker (0 = default 2e6)")
	chaosOnly := fs.Bool("chaos", false, "run (or with -validate, check) only the chaos sweep")
	serviceOnly := fs.Bool("service", false, "run (or with -validate, check) only the fleet-service sweep")
	topologyOnly := fs.Bool("topology", false, "run (or with -validate, check) only the network-topology sweep")
	capacityOnly := fs.Bool("capacity", false, "run (or with -validate, check) only the capacity-model validation sweep")
	iterativeOnly := fs.Bool("iterative", false, "run (or with -validate, check) only the closed-loop iterative sweep")
	validate := fs.Bool("validate", false, "validate existing BENCH_*.json in -out instead of running")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the sweeps to this file (inspect with `go tool pprof`)")
	compare := fs.String("compare", "", "compare a baseline BENCH_kernels.json against a new one (positional arg; defaults to -out's) and print a benchstat-style table instead of running")
	if err := fs.Parse(args); err != nil {
		return err
	}
	only := 0
	for _, f := range []bool{*chaosOnly, *serviceOnly, *topologyOnly, *capacityOnly, *iterativeOnly} {
		if f {
			only++
		}
	}
	if only > 1 {
		return fmt.Errorf("bench: -chaos, -service, -topology, -capacity and -iterative are mutually exclusive")
	}
	paths := bench.Paths(*out)
	if *compare != "" {
		// `nlfl bench -compare old.json [new.json]`: before/after kernel
		// table, the manual counterpart of the CI comparison step.
		before, err := results.LoadBenchKernels(*compare)
		if err != nil {
			return err
		}
		newPath := paths.Kernels
		if fs.NArg() > 0 {
			newPath = fs.Arg(0)
		}
		after, err := results.LoadBenchKernels(newPath)
		if err != nil {
			return err
		}
		fmt.Printf("kernel comparison: %s → %s\n", *compare, newPath)
		fmt.Print(bench.FormatKernelDeltas(bench.CompareKernels(before, after)))
		return nil
	}
	if *validate {
		if *chaosOnly {
			cf, err := results.LoadBenchChaos(paths.Chaos)
			if err != nil {
				return err
			}
			if err := bench.ValidateChaos(cf); err != nil {
				return err
			}
			fmt.Println("BENCH_chaos.json: schema ok, ledger exact, recovery counters nonzero, zero violations")
			return nil
		}
		if *serviceOnly {
			sf, err := results.LoadBenchService(paths.Service)
			if err != nil {
				return err
			}
			if err := bench.ValidateService(sf); err != nil {
				return err
			}
			fmt.Println("BENCH_service.json: schema ok, policy gate holds, chaos isolation exact, zero violations")
			return nil
		}
		if *topologyOnly {
			tf, err := results.LoadBenchTopology(paths.Topology)
			if err != nil {
				return err
			}
			if err := bench.ValidateTopology(tf); err != nil {
				return err
			}
			fmt.Println("BENCH_topology.json: schema ok, crossover shift holds (star yes, chain no), edge ledgers exact, zero violations")
			return nil
		}
		if *capacityOnly {
			capf, err := results.LoadBenchCapacity(paths.Capacity)
			if err != nil {
				return err
			}
			if err := bench.ValidateCapacity(capf); err != nil {
				return err
			}
			fmt.Println("BENCH_capacity.json: schema ok, predictions within tolerance on both runtimes, knee interior")
			return nil
		}
		if *iterativeOnly {
			itf, err := results.LoadBenchIterative(paths.Iterative)
			if err != nil {
				return err
			}
			if err := bench.ValidateIterative(itf); err != nil {
				return err
			}
			fmt.Println("BENCH_iterative.json: schema ok, residuals deterministic across policies, adaptive beats static and tracks the oracle, zero violations")
			return nil
		}
		if err := bench.ValidateFiles(*out); err != nil {
			return err
		}
		fmt.Println("BENCH_kernels.json, BENCH_runtime.json, BENCH_link.json, BENCH_chaos.json, BENCH_service.json, BENCH_topology.json, BENCH_capacity.json, BENCH_iterative.json: schema ok, volumes within tolerance, zero violations")
		return nil
	}

	ctx, stop := benchContext()
	defer stop()
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
	cfg := bench.Config{Seed: *seed, Quick: *quick, WorkPerSecond: *rate}
	if *chaosOnly {
		cf, err := bench.RunChaosSweep(ctx, cfg)
		if err != nil {
			return err
		}
		if err := bench.ValidateChaos(cf); err != nil {
			return err
		}
		if err := results.SaveBenchChaos(paths.Chaos, cf); err != nil {
			return err
		}
		printChaos(cf)
		fmt.Printf("\nwrote %s (every scenario survived, ledger exact, zero trace violations)\n", paths.Chaos)
		return nil
	}
	if *serviceOnly {
		sf, err := bench.RunServiceSweep(ctx, cfg)
		if err != nil {
			return err
		}
		if err := bench.ValidateService(sf); err != nil {
			return err
		}
		if err := results.SaveBenchService(paths.Service, sf); err != nil {
			return err
		}
		printService(sf)
		fmt.Printf("\nwrote %s (policy gate holds, chaos isolation exact, zero trace violations)\n", paths.Service)
		return nil
	}
	if *topologyOnly {
		tf, err := bench.RunTopologySweep(ctx, cfg)
		if err != nil {
			return err
		}
		if err := bench.ValidateTopology(tf); err != nil {
			return err
		}
		if err := results.SaveBenchTopology(paths.Topology, tf); err != nil {
			return err
		}
		printTopology(tf)
		fmt.Printf("\nwrote %s (crossover shift holds, edge ledgers exact, zero trace violations)\n", paths.Topology)
		return nil
	}
	if *capacityOnly {
		capf, err := bench.RunCapacitySweep(ctx, cfg)
		if err != nil {
			return err
		}
		if err := bench.ValidateCapacity(capf); err != nil {
			return err
		}
		if err := results.SaveBenchCapacity(paths.Capacity, capf); err != nil {
			return err
		}
		printCapacity(capf)
		fmt.Printf("\nwrote %s (predictions within tolerance on both runtimes, knee interior)\n", paths.Capacity)
		return nil
	}
	if *iterativeOnly {
		itf, err := bench.RunIterativeSweep(ctx, cfg)
		if err != nil {
			return err
		}
		if err := bench.ValidateIterative(itf); err != nil {
			return err
		}
		if err := results.SaveBenchIterative(paths.Iterative, itf); err != nil {
			return err
		}
		printIterative(itf)
		fmt.Printf("\nwrote %s (adaptive beats static, tracks the oracle, residuals deterministic, zero violations)\n", paths.Iterative)
		return nil
	}

	if _, err := bench.Run(ctx, cfg, *out); err != nil {
		return err
	}

	kf, err := results.LoadBenchKernels(paths.Kernels)
	if err != nil {
		return err
	}
	fmt.Printf("kernels (GOMAXPROCS %d):\n", kf.GOMAXPROCS)
	fmt.Printf("  %-16s %6s %5s %4s %12s %10s\n", "kernel", "n", "tile", "wkrs", "seconds", "GFLOPS")
	for _, e := range kf.Entries {
		fmt.Printf("  %-16s %6d %5d %4d %12.6f %10.3f\n", e.Kernel, e.N, e.Tile, e.Workers, e.Seconds, e.GFLOPS)
	}

	rf, err := results.LoadBenchRuntime(paths.Runtime)
	if err != nil {
		return err
	}
	fmt.Printf("\nruntime (rate %.3g cells/s per unit speed):\n", rf.WorkPerSecond)
	fmt.Printf("  %-12s %-6s %6s %5s %7s %12s %12s %8s %10s\n",
		"platform", "strat", "n", "grid", "chunks", "measured", "predicted", "relerr", "cells/s")
	for _, e := range rf.Entries {
		fmt.Printf("  %-12s %-6s %6d %5d %7d %12.1f %12.1f %8.5f %10.4g\n",
			e.Platform, e.Strategy, e.N, e.Grid, e.Chunks, e.MeasuredVolume, e.PredictedVolume, e.RelError, e.CellsPerSec)
	}
	lf, err := results.LoadBenchLink(paths.Link)
	if err != nil {
		return err
	}
	fmt.Printf("\nlink sweep (one-port master link, double-buffered prefetch):\n")
	fmt.Printf("  %-12s %-6s %10s %10s %10s %10s %8s\n",
		"platform", "strat", "bw", "volume", "makespan", "commTime", "overlap")
	for _, e := range lf.Entries {
		fmt.Printf("  %-12s %-6s %10.3g %10.1f %10.4f %10.4f %8.3f\n",
			e.Platform, e.Strategy, e.Bandwidth, e.MeasuredVolume, e.Makespan, e.CommTime, e.OverlapFraction)
	}
	cf, err := results.LoadBenchChaos(paths.Chaos)
	if err != nil {
		return err
	}
	fmt.Println()
	printChaos(cf)
	sf, err := results.LoadBenchService(paths.Service)
	if err != nil {
		return err
	}
	fmt.Println()
	printService(sf)
	tf, err := results.LoadBenchTopology(paths.Topology)
	if err != nil {
		return err
	}
	fmt.Println()
	printTopology(tf)
	capf, err := results.LoadBenchCapacity(paths.Capacity)
	if err != nil {
		return err
	}
	fmt.Println()
	printCapacity(capf)
	itf, err := results.LoadBenchIterative(paths.Iterative)
	if err != nil {
		return err
	}
	fmt.Println()
	printIterative(itf)
	fmt.Printf("\nwrote %s, %s, %s, %s, %s, %s, %s and %s (all volumes within tolerance, zero trace violations)\n",
		paths.Kernels, paths.Runtime, paths.Link, paths.Chaos, paths.Service, paths.Topology, paths.Capacity, paths.Iterative)
	return nil
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
