package iterative

import (
	"context"
	"errors"
	"fmt"
	"math"

	"nlfl/internal/faults"
	nrt "nlfl/internal/runtime"
	"nlfl/internal/trace"
)

// Typed controller failures.
var (
	// ErrStalled marks an iteration that hit MaxRounds with the residual
	// still above Tol.
	ErrStalled = errors.New("iterative: convergence stalled")
	// ErrNoWorkers marks a round with no surviving worker to plan over.
	ErrNoWorkers = errors.New("iterative: no surviving workers")
)

// Mode selects how each round's split is chosen.
type Mode string

// Planning modes.
const (
	// ModeStatic plans once from the assumed speeds and never re-plans
	// (deaths still shrink the plan to the survivors — the runtime would
	// otherwise re-derive the same thing round after round).
	ModeStatic Mode = "static"
	// ModeAdaptive re-plans from the online estimator — the closed loop.
	ModeAdaptive Mode = "adaptive"
	// ModeOracle re-plans from caller-supplied true rates each round —
	// the omniscient upper baseline the adaptive loop is measured against.
	ModeOracle Mode = "oracle"
)

// The controller's fixed gates.
const (
	// hysteresisGain is the minimum predicted relative makespan
	// improvement before a considered split replaces the current plan —
	// the anti-thrash gate: estimate jitter predicts tiny gains forever,
	// and re-planning on every wiggle churns the plan for nothing.
	hysteresisGain float64 = 0.02
	// traceTol is the relative tolerance of the per-round trace oracle.
	traceTol float64 = 0.05
)

// Options configures an iterative job.
type Options struct {
	// N is the vector length; each round computes the N×N outer product
	// x·xᵀ through the measured pool.
	N int
	// X0 is the start vector (length N, any nonzero); nil selects
	// SeedVector(N, 0.9999).
	X0 []float64
	// MaxRounds bounds the iteration; 0 selects 64. Hitting it with the
	// residual above Tol returns ErrStalled.
	MaxRounds int
	// Tol is the L2 residual declaring convergence; 0 selects 1e-9.
	Tol float64
	// Mode selects the planner ("" selects ModeAdaptive).
	Mode Mode

	// Speeds, WorkPerSecond, Burst, VerifyEvery and Link configure the
	// measured pool exactly as in runtime.Options. Every round runs on
	// the runtime's virtual clock, so a job — its makespans, rate
	// samples and control decisions — is reproducible from its options.
	Speeds        []float64
	WorkPerSecond float64
	Burst         float64
	VerifyEvery   int
	Link          nrt.Link

	// ReplanEvery bounds the re-plan frequency: the adaptive controller
	// considers a new split every ReplanEvery rounds (0 selects 1). Drift
	// detection and worker death bypass the cadence — waiting out a
	// degraded fleet is the one thing a bounded controller must not do.
	ReplanEvery int
	// Gamma is the water-filling nonlinearity coefficient (0 = linear).
	Gamma float64
	// FreezeAfter, when positive, freezes the estimator after that many
	// rounds — the lying-estimates fault injection for negative tests.
	FreezeAfter int

	// Chaos, when non-nil, supplies the fault scenario for each round
	// (modeled seconds from the round's own start). Workers the controller
	// knows are dead get a crash-at-0 merged into every later round, so
	// death is persistent across rounds in every mode.
	Chaos func(round int) nrt.Chaos
	// OracleRates supplies the true per-worker rates (cells/s) for
	// ModeOracle.
	OracleRates func(round int) []float64
}

// RoundResult is one round's record.
type RoundResult struct {
	Round    int
	Makespan float64
	// Residual is ‖x_{t+1} − x_t‖₂ after the round's update.
	Residual float64
	// Kappa[w] is the cells planned onto fleet worker w this round.
	Kappa []float64
	// Replanned marks a round that adopted a new split; Fallback one where
	// the controller wanted to re-plan but the estimator was not trusted.
	Replanned bool
	Fallback  bool
	// Degraded and Violations echo the round's recovery ledger and trace
	// oracle findings.
	Degraded   int
	Violations int
}

// Result is a finished (or stalled) iterative job.
type Result struct {
	Mode      Mode
	N         int
	Converged bool
	Rounds    []RoundResult
	// TotalMakespan sums the round makespans, in modeled seconds.
	TotalMakespan float64
	// Replans counts adopted re-plans after round 0; Fallbacks rounds kept
	// on the last trusted plan; Reanchors drift-detection events.
	Replans   int
	Fallbacks int
	Reanchors int
	// Dominant is the index the iteration converged to (argmax |x|).
	Dominant      int
	FinalResidual float64
	// DeadWorkers lists workers that died permanently along the way.
	DeadWorkers []int
	// CommTime sums every OK transfer's measured seconds across all
	// rounds — the evidence a constrained or throttled link was paid for.
	CommTime float64
	// Violations totals the per-round trace-oracle findings.
	Violations int
}

// SeedVector builds the canonical start vector: a spread pack of entries
// below two near-tied leaders — the runner-up at tie·max — so the number
// of rounds to convergence is set by the tie (entrywise squaring separates
// a ratio r as r^(2^t): tie 0.9999 ≈ 18 rounds at Tol 1e-9, 0.999 ≈ 15,
// 0.6 ≈ 6) and is identical for every planning mode.
func SeedVector(n int, tie float64) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 0.1 + 0.7*float64(i%7)/7
	}
	dom, runner := n/3, (2*n)/3
	if runner == dom {
		runner = (dom + 1) % n
	}
	x[dom] = 1
	if runner != dom {
		x[runner] = tie
	}
	return x
}

// Run executes the iterative job: each round plans a split, runs the
// outer product x·xᵀ on the measured pool, audits the round's trace,
// feeds the measured spans back into the estimator, and advances the
// iterate. The returned Result is also populated (with the rounds so
// far) when the error is non-nil.
func Run(ctx context.Context, opts Options) (*Result, error) {
	p := len(opts.Speeds)
	if opts.N <= 0 {
		return nil, fmt.Errorf("iterative: invalid problem size %d", opts.N)
	}
	if p == 0 {
		return nil, fmt.Errorf("iterative: need at least one worker speed")
	}
	for i, s := range opts.Speeds {
		if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
			return nil, fmt.Errorf("iterative: worker %d has invalid speed %v", i, s)
		}
	}
	mode := opts.Mode
	if mode == "" {
		mode = ModeAdaptive
	}
	switch mode {
	case ModeStatic, ModeAdaptive, ModeOracle:
	default:
		return nil, fmt.Errorf("iterative: unknown mode %q (want static, adaptive or oracle)", mode)
	}
	if mode == ModeOracle && opts.OracleRates == nil {
		return nil, fmt.Errorf("iterative: ModeOracle needs OracleRates")
	}
	if opts.X0 != nil && len(opts.X0) != opts.N {
		return nil, fmt.Errorf("iterative: start vector sized %d for n=%d", len(opts.X0), opts.N)
	}
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 64
	}
	tol := opts.Tol
	if tol <= 0 {
		tol = 1e-9
	}
	replanEvery := opts.ReplanEvery
	if replanEvery <= 0 {
		replanEvery = 1
	}
	rate := opts.WorkPerSecond
	if rate <= 0 {
		rate = 2e6
	}

	x := opts.X0
	if x == nil {
		x = SeedVector(opts.N, 0.9999)
	}
	x = normalize(append([]float64(nil), x...))

	prior := make([]float64, p)
	for w, s := range opts.Speeds {
		prior[w] = s * rate
	}
	est, err := NewEstimator(prior)
	if err != nil {
		return nil, err
	}

	res := &Result{Mode: mode, N: opts.N}
	dead := make([]bool, p)
	load := float64(opts.N) * float64(opts.N)
	var plan *nrt.StrategyPlan
	var kappa []float64 // snapped cells per fleet worker of the current plan
	forceReplan := false

	for round := 0; round < maxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		active := activeWorkers(dead)
		if len(active) == 0 {
			return res, fmt.Errorf("%w: all %d workers dead before round %d", ErrNoWorkers, p, round)
		}

		// Planning rates per mode: the frozen assumption, the estimator,
		// or the omniscient truth.
		var rates, comm []float64
		switch mode {
		case ModeStatic:
			rates = prior
		case ModeAdaptive:
			rates = est.Rates()
			comm = est.CommSeconds()
		case ModeOracle:
			rates = opts.OracleRates(round)
			if len(rates) != p {
				return res, fmt.Errorf("iterative: OracleRates(%d) returned %d rates for %d workers", round, len(rates), p)
			}
		}

		needPlan := plan == nil || forceReplan
		cadence := mode != ModeStatic && round%replanEvery == 0
		replanned, fallback := false, false
		if needPlan || cadence {
			if mode == ModeAdaptive && !needPlan && !est.Trusted(active) {
				fallback = true
				res.Fallbacks++
			} else {
				split, serr := waterFillActive(active, rates, comm, est, mode, opts.Gamma, load)
				if serr != nil {
					return res, serr
				}
				candPlan, candKappa, perr := planFromKappa(active, split.Kappa, p, opts.N)
				if perr != nil {
					return res, perr
				}
				adopt := needPlan
				if !adopt {
					cur := predictMakespan(kappa, rates, comm, dead)
					if split.Theta <= (1-hysteresisGain)*cur {
						adopt = true
					}
				}
				if adopt {
					if plan != nil {
						res.Replans++
					}
					plan, kappa = candPlan, candKappa
					replanned = plan != nil && round > 0
				}
			}
		}
		forceReplan = false

		ropts := nrt.Options{
			Speeds:        opts.Speeds,
			WorkPerSecond: rate,
			Burst:         opts.Burst,
			VerifyEvery:   opts.VerifyEvery,
			Link:          opts.Link,
			Chaos:         roundChaos(opts.Chaos, round, dead),
			Virtual:       true,
		}
		rep, rerr := nrt.RunContext(ctx, plan, x, x, ropts)
		if rerr != nil {
			return res, fmt.Errorf("iterative: round %d: %w", round, rerr)
		}
		violations := len(trace.Check(rep.Trace, rep.Expect(traceTol)))
		res.Violations += violations
		for _, spans := range rep.Trace.Spans {
			for _, s := range spans {
				if s.Kind == trace.Comm && s.Outcome == trace.OK {
					res.CommTime += s.Duration()
				}
			}
		}

		// Deaths are permanent across rounds: note them, exclude the
		// workers from the next plan, and re-merge a crash-at-0 so the
		// fleet's shape stays honest in every later round.
		for _, m := range rep.Trace.Marks {
			if m.Kind == trace.MarkCrash && m.Note == "permanent" && !dead[m.Worker] {
				dead[m.Worker] = true
				est.MarkDead(m.Worker)
				res.DeadWorkers = append(res.DeadWorkers, m.Worker)
				forceReplan = true
			}
		}
		if mode == ModeAdaptive {
			if opts.FreezeAfter > 0 && round+1 >= opts.FreezeAfter {
				est.Freeze()
			}
			if drifted := est.ObserveRound(rep.Trace); len(drifted) > 0 {
				forceReplan = true
			}
		}

		// Advance the iterate: diag(x·xᵀ) = x², renormalized. The update
		// is exact float64 arithmetic on the master, so the residual
		// sequence is identical under every planning mode and timing —
		// the determinism cross-check the bench gates on.
		next := make([]float64, opts.N)
		for i := 0; i < opts.N; i++ {
			next[i] = rep.Out.Data[i*opts.N+i]
		}
		next = normalize(next)
		residual := 0.0
		for i := range next {
			d := next[i] - x[i]
			residual += d * d
		}
		residual = math.Sqrt(residual)
		x = next

		res.Rounds = append(res.Rounds, RoundResult{
			Round:      round,
			Makespan:   rep.Makespan,
			Residual:   residual,
			Kappa:      append([]float64(nil), kappa...),
			Replanned:  replanned,
			Fallback:   fallback,
			Degraded:   rep.DegradedWorkers,
			Violations: violations,
		})
		res.TotalMakespan += rep.Makespan
		res.FinalResidual = residual
		if residual <= tol {
			res.Converged = true
			break
		}
	}
	res.Reanchors = est.Reanchors()
	res.Dominant = argmax(x)
	if !res.Converged {
		return res, fmt.Errorf("%w: residual %.3g after %d rounds (tol %.3g)", ErrStalled, res.FinalResidual, len(res.Rounds), tol)
	}
	return res, nil
}

// waterFillActive solves the round's split over the active workers.
func waterFillActive(active []int, rates, comm []float64, est *Estimator, mode Mode, gamma, load float64) (Split, error) {
	unit := make([]float64, len(active))
	var c, sigma []float64
	if comm != nil {
		c = make([]float64, len(active))
	}
	var stds []float64
	if mode == ModeAdaptive && gamma > 0 {
		stds = est.UnitStds()
		sigma = make([]float64, len(active))
	}
	for i, w := range active {
		if rates[w] <= 0 {
			return Split{}, fmt.Errorf("%w: worker %d rate %v", ErrBadParams, w, rates[w])
		}
		unit[i] = 1 / rates[w]
		if c != nil {
			c[i] = comm[w]
		}
		if sigma != nil {
			sigma[i] = stds[w]
		}
	}
	return WaterFill(Params{Gamma: gamma, Comm: c, Unit: unit, Sigma: sigma, Load: load})
}

// planFromKappa realizes a split as an owned PERI-SUM plan over the full
// fleet (dead workers excluded) and returns the snapped per-worker cells.
func planFromKappa(active []int, kappa []float64, p, n int) (*nrt.StrategyPlan, []float64, error) {
	weights := make([]float64, p)
	for i, w := range active {
		weights[w] = kappa[i]
	}
	plan, err := nrt.PlanWeighted("wf", weights, n)
	if err != nil {
		return nil, nil, fmt.Errorf("iterative: %w", err)
	}
	cells := make([]float64, p)
	for _, c := range plan.Chunks {
		cells[c.Owner] += float64(c.Cells())
	}
	return plan, cells, nil
}

// predictMakespan prices a kappa assignment under the given rates: the
// slowest worker's comm overhead plus compute time.
func predictMakespan(kappa, rates, comm []float64, dead []bool) float64 {
	worst := 0.0
	for w, k := range kappa {
		if k <= 0 || dead[w] || rates[w] <= 0 {
			continue
		}
		t := k / rates[w]
		if comm != nil {
			t += comm[w]
		}
		if t > worst {
			worst = t
		}
	}
	return worst
}

// roundChaos merges the caller's per-round scenario with crash-at-0
// events for workers already known dead, so death persists across rounds
// under every planning mode.
func roundChaos(base func(int) nrt.Chaos, round int, dead []bool) nrt.Chaos {
	var c nrt.Chaos
	if base != nil {
		c = base(round)
	}
	anyDead := false
	for _, d := range dead {
		if d {
			anyDead = true
			break
		}
	}
	if !anyDead {
		return c
	}
	events := append([]faults.Event(nil), c.Scenario.Events...)
	for w, d := range dead {
		if d {
			events = append(events, faults.Event{Kind: faults.Crash, Worker: w, Time: 0})
		}
	}
	c.Scenario.Events = events
	return c
}

// activeWorkers lists the not-yet-dead fleet indices.
func activeWorkers(dead []bool) []int {
	var out []int
	for w, d := range dead {
		if !d {
			out = append(out, w)
		}
	}
	return out
}

// normalize scales v to unit L2 norm in place (a zero vector is returned
// unchanged).
func normalize(v []float64) []float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	if s == 0 {
		return v
	}
	inv := 1 / math.Sqrt(s)
	for i := range v {
		v[i] *= inv
	}
	return v
}

// argmax returns the index of the largest-magnitude entry.
func argmax(v []float64) int {
	best, bi := math.Inf(-1), 0
	for i, x := range v {
		if a := math.Abs(x); a > best {
			best, bi = a, i
		}
	}
	return bi
}
