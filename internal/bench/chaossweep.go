package bench

import (
	"context"
	"fmt"
	goruntime "runtime"

	"nlfl/internal/faults"
	"nlfl/internal/platform"
	"nlfl/internal/results"
	nrt "nlfl/internal/runtime"
	"nlfl/internal/stats"
	"nlfl/internal/trace"
)

// The chaos sweep runs a fixed envelope rather than the Config knobs:
// every scenario's crash instants, fault windows, retry budgets and
// speculation thresholds are calibrated against this rate and size so
// the fault lands mid-run (not after an instant drain, not after the
// pool already finished). chaosN=128 keeps a het-1357 chunk around 50 ms
// at chaosRate, so a 15 ms crash lands mid-chunk. Every instant is
// modeled time on the virtual clock.
const (
	chaosN    = 128
	chaosRate = 2e4
)

// chaosCase is one fault scenario the sweep injects.
type chaosCase struct {
	class    string // "crash", "crash-t0", "straggler", "flaky-link"
	strategy string // "het" exercises re-planning, "hom" the shared queue
	chaos    nrt.Chaos
}

// chaosCases returns one scenario per fault class. Crash scenarios run
// the het strategy so recovery exercises the survivor re-plan (the dead
// worker's rectangle is re-split by PERI-SUM over the survivors);
// straggler and flaky-link run hom so recovery exercises speculation and
// retry against the shared sharded queue.
func chaosCases() []chaosCase {
	return []chaosCase{
		{
			class:    "crash",
			strategy: "het",
			// Worker p-1 (the fastest, largest rectangle) dies mid-chunk.
			chaos: nrt.Chaos{Scenario: faults.SingleCrash(3, 0.015), MaxRetries: 4},
		},
		{
			class:    "crash-t0",
			strategy: "het",
			// The edge case: death before the first transfer. Recovery is
			// pure backlog reclamation — no in-flight lease exists yet.
			chaos: nrt.Chaos{Scenario: faults.SingleCrash(3, 0), MaxRetries: 4},
		},
		{
			class:    "straggler",
			strategy: "hom",
			chaos: nrt.Chaos{
				Scenario: faults.Scenario{Events: []faults.Event{
					// Worker 0 computes at quarter speed for the whole run;
					// speculation re-issues its stale chunk to an idle peer.
					{Kind: faults.Straggler, Worker: 0, Time: 0, Until: 1, Factor: 0.25},
				}},
				SpeculateAfter: 0.06,
			},
		},
		{
			class:    "flaky-link",
			strategy: "hom",
			chaos: nrt.Chaos{
				Scenario: faults.Scenario{Events: []faults.Event{
					// Every transfer to worker 0 in the first 80 ms is lost:
					// deterministic retry counts regardless of the drop RNG.
					{Kind: faults.LinkDrop, Worker: 0, Time: 0, Until: 0.08, DropProb: 1},
				}},
				MaxRetries:  8,
				BackoffBase: 0.005,
				BackoffMax:  0.04,
			},
		},
	}
}

// RunChaosSweep executes one scenario per fault class through the real
// worker pool with the chaos layer armed, on the virtual clock, audits
// every trace with the exactly-once oracle, and returns the BENCH_chaos
// payload. A scenario the pool does not survive — or survives with a
// dirty ledger, which RunContext reports against the survivor-re-planned
// plan — is an error, not a data point. A cancelled ctx aborts the in-flight
// run and stops the sweep.
func RunChaosSweep(ctx context.Context, cfg Config) (results.ChaosBenchFile, error) {
	file := results.ChaosBenchFile{
		Schema:        results.BenchChaosSchema,
		Seed:          cfg.Seed,
		WorkPerSecond: chaosRate,
		GoVersion:     goruntime.Version(),
	}
	r := stats.NewRNG(cfg.Seed)
	a := stats.SampleN(stats.Uniform{Lo: -1, Hi: 1}, r, chaosN)
	b := stats.SampleN(stats.Uniform{Lo: -1, Hi: 1}, r, chaosN)

	for _, bp := range hetPlatforms {
		pl, err := platform.FromSpeeds(bp.speeds)
		if err != nil {
			return file, err
		}
		for _, cc := range chaosCases() {
			if err := ctx.Err(); err != nil {
				return file, err
			}
			var plan *nrt.StrategyPlan
			if cc.strategy == "het" {
				plan, err = nrt.PlanHet(pl, chaosN)
			} else {
				plan, err = nrt.PlanHom(pl, chaosN)
			}
			if err != nil {
				return file, fmt.Errorf("bench: %s/%s plan: %w", bp.name, cc.class, err)
			}
			rep, err := nrt.RunContext(ctx, plan, a, b, nrt.Options{
				Speeds:        bp.speeds,
				WorkPerSecond: chaosRate,
				// Burst 1: no banked credit, so every worker pays honest
				// token time and the calibrated fault windows land mid-run.
				Burst:       1,
				VerifyEvery: 509,
				Chaos:       cc.chaos,
				Virtual:     true,
			})
			if err != nil {
				return file, fmt.Errorf("bench: %s/%s: pool did not survive: %w", bp.name, cc.class, err)
			}
			violations := trace.Check(rep.Trace, rep.Expect(1e-9))
			if len(violations) > 0 {
				return file, fmt.Errorf("bench: %s/%s trace violations: %v", bp.name, cc.class, trace.Must(violations))
			}
			file.Entries = append(file.Entries, results.ChaosBenchEntry{
				Class: cc.class, Platform: bp.name, Speeds: bp.speeds,
				Strategy: rep.Strategy, N: chaosN, Workers: rep.Workers, Chunks: rep.Chunks,
				PlanVolume:      rep.PlanVolume,
				ReplannedVolume: rep.ReplannedVolume,
				CommittedVolume: rep.CommittedVolume,
				MeasuredVolume:  rep.DataVolume,
				WastedData:      rep.WastedData,
				Makespan:        rep.Makespan,
				RetriedChunks:   rep.RetriedChunks,
				SpeculativeWins: rep.SpeculativeWins,
				DegradedWorkers: rep.DegradedWorkers,
				ReclaimedCells:  rep.ReclaimedCells,
			})
		}
	}
	return file, nil
}

// judgeChaos checks the claims of a BENCH_chaos payload that no run
// checks itself: every scenario bit — a crash degraded a worker and
// reclaimed its cells, a straggler lost a chunk to speculation, a flaky
// link forced a retry (a chaos sweep that injected nothing would pass
// every other gate) — and recovery never burned more than half of what
// it shipped. RunContext already failed any run whose ledger leaks.
func judgeChaos(f results.ChaosBenchFile) error {
	for i, e := range f.Entries {
		id := fmt.Sprintf("entry %d (%s %s/%s)", i, e.Class, e.Platform, e.Strategy)
		if e.WastedData > 0.5*e.MeasuredVolume {
			return invalid("%s: waste fraction %.2f above 0.5 — recovery thrashing", id, e.WastedData/e.MeasuredVolume)
		}
		switch e.Class {
		case "crash", "crash-t0":
			if e.DegradedWorkers < 1 || e.ReclaimedCells <= 0 {
				return invalid("%s: crash scenario left no trace (degraded %d, reclaimed %v)",
					id, e.DegradedWorkers, e.ReclaimedCells)
			}
		case "straggler":
			if e.SpeculativeWins < 1 {
				return invalid("%s: straggler scenario produced no speculative win", id)
			}
		case "flaky-link":
			if e.RetriedChunks < 1 {
				return invalid("%s: flaky-link scenario produced no retry", id)
			}
		}
	}
	return nil
}
