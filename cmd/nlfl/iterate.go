package main

import (
	"context"
	"fmt"
	"strings"

	"nlfl/internal/iterative"
)

// runIterate drives one closed-loop iterative job from the command line:
// a deterministic power iteration whose rounds run on the measured pool,
// each round's split a water-filling plan over the selected mode's rates
// (assumed, estimated or omniscient). The residual trajectory is exact
// master-side float64 arithmetic, identical across modes; the rounds run
// on the runtime's virtual clock, so the makespans and control decisions
// are modeled time and the whole output is byte-identical across reruns.
func runIterate(args []string) error {
	fs := newFlagSet("iterate")
	n := fs.Int("n", 96, "vector length (each round computes the n×n outer product)")
	tie := fs.Float64("tie", 0.999, "runner-up tie in (0,1): sets the deterministic round count (0.6 ≈ 6, 0.999 ≈ 15, 0.9999 ≈ 18)")
	rounds := fs.Int("rounds", 30, "round budget before the job stalls")
	tol := fs.Float64("tol", 1e-9, "L2 residual declaring convergence")
	mode := fs.String("mode", "adaptive", "planning mode: static, adaptive or oracle")
	speeds := fs.String("speeds", "1,2,3,4", "comma-separated worker speeds")
	rate := fs.Float64("rate", 2e4, "cells/s per unit speed")
	replan := fs.Int("replan", 1, "consider a new split every k rounds (drift and death bypass the cadence)")
	gamma := fs.Float64("gamma", 0, "water-filling nonlinearity coefficient (0 = linear)")
	driftWorker := fs.Int("drift-worker", -1, "worker to slow mid-run (-1 = no drift)")
	driftFactor := fs.Float64("drift-factor", 0.5, "drifted worker's speed multiplier")
	driftRound := fs.Int("drift-round", 2, "round the drift starts")
	seed := fs.Int64("seed", 42, "fault-scenario seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n <= 0 {
		return fmt.Errorf("iterate: invalid problem size %d", *n)
	}
	switch iterative.Mode(*mode) {
	case iterative.ModeStatic, iterative.ModeAdaptive, iterative.ModeOracle:
	default:
		return fmt.Errorf("iterate: unknown mode %q (want static, adaptive or oracle)", *mode)
	}
	if *tie <= 0 || *tie >= 1 {
		return fmt.Errorf("iterate: -tie %v outside (0,1)", *tie)
	}
	sp, err := parseFloats(*speeds)
	if err != nil {
		return err
	}
	if *driftWorker >= len(sp) {
		return fmt.Errorf("iterate: -drift-worker %d outside the fleet of %d", *driftWorker, len(sp))
	}
	if *driftFactor <= 0 || *driftFactor > 1 {
		return fmt.Errorf("iterate: -drift-factor %v outside (0,1]", *driftFactor)
	}

	opts := iterative.Options{
		N:             *n,
		X0:            iterative.SeedVector(*n, *tie),
		MaxRounds:     *rounds,
		Tol:           *tol,
		Mode:          iterative.Mode(*mode),
		Speeds:        sp,
		WorkPerSecond: *rate,
		Burst:         1,
		VerifyEvery:   101,
		ReplanEvery:   *replan,
		Gamma:         *gamma,
	}
	drift := iterative.Drift{Worker: *driftWorker, Factor: *driftFactor, Round: *driftRound}
	opts.Chaos = drift.Chaos(*seed)
	if iterative.Mode(*mode) == iterative.ModeOracle {
		opts.OracleRates = drift.OracleRates(sp, *rate)
	}

	fmt.Printf("iterative power method: n=%d mode=%s tie=%.4g fleet of %d (speeds %s) rate %.3g cells/s\n",
		*n, *mode, *tie, len(sp), *speeds, *rate)
	if *driftWorker >= 0 {
		fmt.Printf("drift: worker %d slows to %.2fx from round %d\n", *driftWorker, *driftFactor, *driftRound)
	}

	res, runErr := iterative.Run(context.Background(), opts)
	if res == nil {
		return runErr
	}
	fmt.Println("residuals (exact master arithmetic — identical for every mode and rerun):")
	for _, r := range res.Rounds {
		fmt.Printf("  round %3d  residual %.6e\n", r.Round, r.Residual)
	}
	if res.Converged {
		fmt.Printf("converged in %d rounds to dominant index %d\n", len(res.Rounds), res.Dominant)
	} else {
		fmt.Printf("did not converge in %d rounds (dominant so far %d)\n", len(res.Rounds), res.Dominant)
	}
	fmt.Println("control and timing (modeled seconds on the virtual clock):")
	for _, r := range res.Rounds {
		marks := ""
		if r.Replanned {
			marks += "  replanned"
		}
		if r.Fallback {
			marks += "  fallback"
		}
		if r.Degraded > 0 {
			marks += fmt.Sprintf("  degraded=%d", r.Degraded)
		}
		fmt.Printf("  round %3d  makespan %.5f s%s\n", r.Round, r.Makespan, marks)
	}
	fmt.Printf("  replans %d, fallbacks %d, reanchors %d, violations %d\n",
		res.Replans, res.Fallbacks, res.Reanchors, res.Violations)
	if len(res.DeadWorkers) > 0 {
		fmt.Printf("  dead workers %s\n", strings.Trim(fmt.Sprint(res.DeadWorkers), "[]"))
	}
	fmt.Printf("  total makespan %.4f s\n", res.TotalMakespan)
	return runErr
}
