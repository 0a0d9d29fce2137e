package bench

import (
	"context"
	"fmt"
	goruntime "runtime"

	"nlfl/internal/faults"
	"nlfl/internal/iterative"
	"nlfl/internal/results"
	nrt "nlfl/internal/runtime"
)

// The iterative sweep runs a fixed calibrated envelope, like the chaos
// sweep: the drifting-straggler scenario's factor, onset round and tie
// are tuned against this rate and size so the adaptive controller has
// both something real to detect (the static split loses ~40% makespan
// to the straggler) and enough rounds after detection to pay the
// adaptation back before convergence.
const (
	// iterN/iterRate: a 96×96 outer product over a {1,2,3,4} fleet at
	// 2e4 cells/s/speed ≈ 46 ms per round — long enough that the
	// straggler window lands mid-round, short enough for CI.
	iterN    = 96
	iterRate = 2e4
	// iterDriftWorker (the fastest worker, largest rectangle) drops to
	// iterDriftFactor of its speed from round iterDriftRound on.
	iterDriftWorker = 3
	iterDriftFactor = 0.5
	iterDriftRound  = 2
	// iterOracleTolerance is the headline gate: adaptive TotalMakespan
	// within 10% of the omniscient-oracle policy's.
	iterOracleTolerance = 0.10
	// iterChaosN matches the chaos × re-plan property sweep's envelope
	// (internal/iterative TestChaosIterativeProperty).
	iterChaosN    = 48
	iterChaosRate = 4e5
)

// iterSpeeds is the policy sweep's fleet speed profile.
func iterSpeeds() []float64 { return []float64{1, 2, 3, 4} }

// iterTie is the runner-up tie, and with it the deterministic round
// count: entrywise squaring separates a ratio r as r^(2^t), so 0.9999
// takes ≈ 18 rounds.
const iterTie = 0.9999

// iterDrift is the drifting-straggler scenario every policy runs under.
var iterDrift = iterative.Drift{Worker: iterDriftWorker, Factor: iterDriftFactor, Round: iterDriftRound}

// RunIterativeSweep runs the closed-loop re-planning bench: the same
// deterministic power iteration under three planning policies on a
// drifting-straggler fleet, plus one adaptive run per chaos class, every
// round audited by the exactly-once trace oracle. The iterate itself is
// exact master arithmetic, so residuals and round counts must agree
// across policies — only the makespans, modeled on the virtual clock,
// differ, and those are what the policies are ranked on.
func RunIterativeSweep(ctx context.Context, cfg Config) (results.IterativeBenchFile, error) {
	return runIterativeSweep(ctx, cfg, 0)
}

// runIterativeSweep is RunIterativeSweep with a lying-estimates
// injection point: freezeAfter > 0 freezes the adaptive estimator after
// that many rounds, so the negative test can prove the gates actually
// detect a controller that stops listening.
func runIterativeSweep(ctx context.Context, cfg Config, freezeAfter int) (results.IterativeBenchFile, error) {
	file := results.IterativeBenchFile{
		Schema:        results.BenchIterativeSchema,
		Seed:          cfg.Seed,
		WorkPerSecond: iterRate,
		GoVersion:     goruntime.Version(),
	}
	makespans := map[iterative.Mode]float64{}
	for _, mode := range []iterative.Mode{iterative.ModeStatic, iterative.ModeAdaptive, iterative.ModeOracle} {
		if err := ctx.Err(); err != nil {
			return file, err
		}
		opts := iterative.Options{
			N:             iterN,
			X0:            iterative.SeedVector(iterN, iterTie),
			MaxRounds:     30,
			Tol:           1e-9,
			Mode:          mode,
			Speeds:        iterSpeeds(),
			WorkPerSecond: iterRate,
			// Burst 1: no banked credit, so every span pays honest token
			// time and the rate samples measure the drifted reality.
			Burst:       1,
			VerifyEvery: 101,
			Chaos:       iterDrift.Chaos(cfg.Seed),
		}
		if mode == iterative.ModeOracle {
			opts.OracleRates = iterDrift.OracleRates(iterSpeeds(), iterRate)
		}
		if mode == iterative.ModeAdaptive {
			opts.FreezeAfter = freezeAfter
		}
		res, err := iterative.Run(ctx, opts)
		if err != nil {
			return file, fmt.Errorf("bench: iterative %s policy: %w", mode, err)
		}
		residuals := make([]float64, len(res.Rounds))
		rounds := make([]float64, len(res.Rounds))
		for i, r := range res.Rounds {
			residuals[i] = r.Residual
			rounds[i] = r.Makespan
		}
		makespans[mode] = res.TotalMakespan
		file.Policies = append(file.Policies, results.IterativePolicyEntry{
			Policy:         string(mode),
			N:              iterN,
			Speeds:         iterSpeeds(),
			Rounds:         len(res.Rounds),
			Converged:      res.Converged,
			Residuals:      residuals,
			Dominant:       res.Dominant,
			TotalMakespan:  res.TotalMakespan,
			RoundMakespans: rounds,
			Replans:        res.Replans,
			Fallbacks:      res.Fallbacks,
			Reanchors:      res.Reanchors,
			DriftWorker:    iterDriftWorker,
			DriftFactor:    iterDriftFactor,
			DriftRound:     iterDriftRound,
			Violations:     res.Violations,
		})
	}
	if oracle := makespans[iterative.ModeOracle]; oracle > 0 {
		file.AdaptiveOverOracle = makespans[iterative.ModeAdaptive] / oracle
	}
	if adaptive := makespans[iterative.ModeAdaptive]; adaptive > 0 {
		file.StaticOverAdaptive = makespans[iterative.ModeStatic] / adaptive
	}

	for _, class := range []string{"crash", "straggler", "link-slow"} {
		if err := ctx.Err(); err != nil {
			return file, err
		}
		opts := iterative.Options{
			N:             iterChaosN,
			X0:            iterative.SeedVector(iterChaosN, 0.6),
			MaxRounds:     12,
			Tol:           1e-9,
			Mode:          iterative.ModeAdaptive,
			Speeds:        []float64{1, 2, 3},
			WorkPerSecond: iterChaosRate,
			Burst:         1,
			VerifyEvery:   11,
		}
		switch class {
		case "crash":
			opts.Chaos = func(round int) nrt.Chaos {
				if round != 1 {
					return nrt.Chaos{}
				}
				return nrt.Chaos{
					// Round 1 lasts ≈ 1 ms at this throttle; the crash
					// instant must land inside it to actually fire.
					Scenario:   faults.Scenario{Seed: cfg.Seed, Events: []faults.Event{{Kind: faults.Crash, Worker: 1, Time: 0.0003}}},
					MaxRetries: 3,
				}
			}
		case "straggler":
			opts.Chaos = iterative.Drift{Worker: 2, Factor: 0.3, Round: 1}.Chaos(cfg.Seed)
		case "link-slow":
			opts.Link = nrt.Link{ElemsPerSecond: 4e6}
			opts.Chaos = func(round int) nrt.Chaos {
				if round < 1 {
					return nrt.Chaos{}
				}
				return nrt.Chaos{Scenario: faults.Scenario{Seed: cfg.Seed, Events: []faults.Event{
					{Kind: faults.LinkSlow, Worker: 2, Time: 0, Until: 1e9, Factor: 0.25},
				}}}
			}
		}
		res, err := iterative.Run(ctx, opts)
		if err != nil {
			return file, fmt.Errorf("bench: iterative chaos %s: controller did not survive: %w", class, err)
		}
		file.Chaos = append(file.Chaos, results.IterativeChaosEntry{
			Class:         class,
			N:             iterChaosN,
			Rounds:        len(res.Rounds),
			Converged:     res.Converged,
			Dominant:      res.Dominant,
			TotalMakespan: res.TotalMakespan,
			DeadWorkers:   append([]int(nil), res.DeadWorkers...),
			Replans:       res.Replans,
			Reanchors:     res.Reanchors,
			CommTime:      res.CommTime,
			Violations:    res.Violations,
		})
	}
	return file, nil
}

// judgeIterative is the acceptance gate for a BENCH_iterative payload:
// every run converged with a clean measured trace ledger, the
// deterministic halves (round counts, residual sequences, dominant
// index) bit-identical across policies — and the headline ranking:
// adaptive strictly beats static under the drifting straggler, stays
// within 10% of the omniscient oracle, and actually adapted (re-plans
// after drift detection; a static run that happens to be fast would
// pass the timing gates without them), as did every chaos run.
func judgeIterative(f results.IterativeBenchFile) error {
	byPolicy := map[string]results.IterativePolicyEntry{}
	for _, e := range f.Policies {
		if !e.Converged {
			return invalid("%s policy did not converge", e.Policy)
		}
		if e.Violations != 0 {
			return invalid("%s policy: %d trace violations", e.Policy, e.Violations)
		}
		byPolicy[e.Policy] = e
	}
	static, adaptive, oracle := byPolicy["static"], byPolicy["adaptive"], byPolicy["oracle"]

	// Determinism cross-check: the iterate update is exact master-side
	// float64 arithmetic, so the numerical trajectory cannot depend on
	// how the rounds were split.
	for _, e := range []results.IterativePolicyEntry{adaptive, oracle} {
		if e.Rounds != static.Rounds {
			return invalid("%s ran %d rounds, static ran %d — the iterate is not deterministic",
				e.Policy, e.Rounds, static.Rounds)
		}
		if e.Dominant != static.Dominant {
			return invalid("%s converged to index %d, static to %d", e.Policy, e.Dominant, static.Dominant)
		}
		for r := range e.Residuals {
			if e.Residuals[r] != static.Residuals[r] {
				return invalid("round %d residual differs: %s %v vs static %v",
					r, e.Policy, e.Residuals[r], static.Residuals[r])
			}
		}
	}

	// The headline ranking.
	if adaptive.TotalMakespan >= static.TotalMakespan {
		return invalid("adaptive makespan %.4f not below static %.4f under drift",
			adaptive.TotalMakespan, static.TotalMakespan)
	}
	if adaptive.TotalMakespan > (1+iterOracleTolerance)*oracle.TotalMakespan {
		return invalid("adaptive makespan %.4f above %.0f%% of oracle %.4f",
			adaptive.TotalMakespan, 100*(1+iterOracleTolerance), oracle.TotalMakespan)
	}
	if adaptive.Replans < 1 || adaptive.Reanchors < 1 {
		return invalid("adaptive policy never adapted (replans %d, reanchors %d)",
			adaptive.Replans, adaptive.Reanchors)
	}
	if static.Replans != 0 {
		return invalid("static policy re-planned %d times", static.Replans)
	}

	// The chaos half: one adaptive run per fault class, each with the
	// evidence the fault actually bit.
	for _, e := range f.Chaos {
		if !e.Converged {
			return invalid("chaos %s did not converge", e.Class)
		}
		if e.Violations != 0 {
			return invalid("chaos %s: %d exactly-once violations", e.Class, e.Violations)
		}
		switch e.Class {
		case "crash":
			if len(e.DeadWorkers) < 1 {
				return invalid("chaos crash killed nobody")
			}
		case "straggler":
			if e.Reanchors < 1 || e.Replans < 1 {
				return invalid("chaos straggler never triggered adaptation (reanchors %d, replans %d)",
					e.Reanchors, e.Replans)
			}
		case "link-slow":
			if e.CommTime <= 0 {
				return invalid("chaos link-slow: throttled link left no measured comm time (%v)", e.CommTime)
			}
		}
	}
	return nil
}
