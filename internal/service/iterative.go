package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"nlfl/internal/iterative"
)

// ErrIterativeStalled marks an iterative job that exhausted MaxRounds
// with the residual still above tolerance.
var ErrIterativeStalled = errors.New("service: iterative job stalled")

// IterativeSpec describes a closed-loop iterative job: a power
// iteration whose rounds are ordinary fleet jobs, each round's split a
// measured-rate water-filling plan over whatever slice the fleet is
// willing to admit at that moment. The iterative client is deliberately
// a *tenant* of the fleet, not a scheduler bypass: every round pays
// admission control, queueing and per-round deadlines like anyone else.
type IterativeSpec struct {
	// Tenant is the accounting identity; "" means "default".
	Tenant string
	// N is the vector length; each round computes x·xᵀ (N×N).
	N int
	// X0 is the start vector (length N); nil selects
	// iterative.SeedVector(N, 0.9999).
	X0 []float64
	// MaxRounds bounds the iteration; 0 selects 64. Exhausting it with
	// the residual above Tol fails the job with ErrIterativeStalled.
	MaxRounds int
	// Tol is the L2 residual declaring convergence; 0 selects 1e-9.
	Tol float64
	// RoundDeadline, when positive, bounds each round's job from
	// submission (queueing included). A missed round is retried once —
	// drift may have invalidated the split — and counted in
	// DeadlineMisses; a second miss fails the iterative job.
	RoundDeadline time.Duration
	// MaxWorkers, when positive, caps each round's slice.
	MaxWorkers int
}

// IterativeReport is the finished (or failed) iterative job's ledger.
type IterativeReport struct {
	Tenant    string
	N         int
	Rounds    int
	Converged bool
	// Dominant is the converged dominant-entry index; FinalResidual the
	// last round's ‖xₜ₊₁ − xₜ‖₂.
	Dominant      int
	FinalResidual float64
	// TotalMakespan sums the rounds' measured service times;
	// TotalLatency their full submit-to-done latencies (queueing
	// included — the price of being a tenant).
	TotalMakespan float64
	TotalLatency  float64
	// Fallbacks counts rounds planned from the untrusted-estimator
	// fallback (prior rates); Reanchors drift re-anchor events;
	// DeadlineMisses rounds that blew RoundDeadline; RetriedRounds
	// rounds that needed a second submission.
	Fallbacks      int
	Reanchors      int
	DeadlineMisses int
	RetriedRounds  int
	// JobIDs lists the fleet job ids the rounds ran as, in order.
	JobIDs []int64
}

// IterativeHandle is the caller's view of a running iterative job.
type IterativeHandle struct {
	done   chan struct{}
	report *IterativeReport
	err    error
}

// Done returns a channel closed when the iterative job finishes.
func (h *IterativeHandle) Done() <-chan struct{} { return h.done }

// Wait blocks until the iterative job is terminal (or ctx expires) and
// returns its report; the report also accompanies a non-nil error,
// carrying the rounds that did run.
func (h *IterativeHandle) Wait(ctx context.Context) (*IterativeReport, error) {
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-h.done:
	}
	return h.report, h.err
}

// SubmitIterative starts a closed-loop iterative job on the fleet and
// returns immediately. Each round previews the current admissible slice,
// water-fills the round's load over the estimator's measured rates,
// submits the split as a "wf" job with the per-round deadline, and feeds
// the round's trace back into the estimator. The loop never bypasses
// admission control: a rejected or deadline-missed round is retried
// once, then the iterative job fails.
func SubmitIterative(f *Fleet, spec IterativeSpec) (*IterativeHandle, error) {
	if spec.N <= 0 {
		return nil, fmt.Errorf("service: iterative job size n=%d", spec.N)
	}
	if spec.X0 != nil && len(spec.X0) != spec.N {
		return nil, fmt.Errorf("service: iterative start vector sized %d for n=%d", len(spec.X0), spec.N)
	}
	if spec.Tenant == "" {
		spec.Tenant = "default"
	}
	if spec.MaxRounds <= 0 {
		spec.MaxRounds = 64
	}
	if spec.Tol <= 0 {
		spec.Tol = 1e-9
	}
	prior := make([]float64, len(f.speeds))
	for w, s := range f.speeds {
		prior[w] = s * f.rate
	}
	est, err := iterative.NewEstimator(prior)
	if err != nil {
		return nil, err
	}
	h := &IterativeHandle{done: make(chan struct{})}
	go func() {
		h.report, h.err = f.runIterative(spec, est, prior)
		close(h.done)
	}()
	return h, nil
}

// runIterative is the iterative client loop (one goroutine per job).
func (f *Fleet) runIterative(spec IterativeSpec, est *iterative.Estimator, prior []float64) (*IterativeReport, error) {
	rep := &IterativeReport{Tenant: spec.Tenant, N: spec.N}
	x := spec.X0
	if x == nil {
		x = iterative.SeedVector(spec.N, 0.9999)
	}
	x = append([]float64(nil), x...)
	normalizeL2(x)

	for round := 0; round < spec.MaxRounds; round++ {
		job, retried, err := f.runRound(spec, est, prior, x, rep)
		if retried {
			rep.RetriedRounds++
		}
		if err != nil {
			rep.Dominant = argmaxAbs(x)
			return rep, err
		}
		rep.Rounds++
		rep.JobIDs = append(rep.JobIDs, job.ID)
		rep.TotalMakespan += job.Makespan
		rep.TotalLatency += job.Latency
		est.ObserveRound(job.Trace)

		next := make([]float64, spec.N)
		for i := 0; i < spec.N; i++ {
			next[i] = job.Out.At(i, i)
		}
		normalizeL2(next)
		residual := 0.0
		for i := range next {
			d := next[i] - x[i]
			residual += d * d
		}
		rep.FinalResidual = math.Sqrt(residual)
		x = next
		if rep.FinalResidual <= spec.Tol {
			rep.Converged = true
			break
		}
	}
	rep.Reanchors = est.Reanchors()
	rep.Dominant = argmaxAbs(x)
	if !rep.Converged {
		return rep, fmt.Errorf("%w: residual %.3g after %d rounds (tol %.3g)",
			ErrIterativeStalled, rep.FinalResidual, rep.Rounds, spec.Tol)
	}
	return rep, nil
}

// runRound plans and runs one round as a fleet job, retrying once on a
// failed or deadline-missed round (the slice and split are recomputed —
// the failure may have been the stale plan's fault).
func (f *Fleet) runRound(spec IterativeSpec, est *iterative.Estimator, prior, x []float64, rep *IterativeReport) (*JobReport, bool, error) {
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		job, err := f.submitRound(spec, est, prior, x, rep)
		if err == nil {
			return job, attempt > 0, nil
		}
		if errors.Is(err, context.DeadlineExceeded) {
			rep.DeadlineMisses++
		}
		lastErr = err
	}
	return nil, true, fmt.Errorf("service: iterative round %d: %w", rep.Rounds, lastErr)
}

// submitRound runs a single round attempt end to end.
func (f *Fleet) submitRound(spec IterativeSpec, est *iterative.Estimator, prior, x []float64, rep *IterativeReport) (*JobReport, error) {
	preview := JobSpec{Tenant: spec.Tenant, N: spec.N, Strategy: "wf",
		Weights: []float64{1}, MaxWorkers: spec.MaxWorkers}
	slice := f.SliceFor(preview)
	if len(slice) == 0 {
		return nil, &AdmissionError{Reason: RejectNoHealthyWorker, Detail: "no healthy worker for iterative round"}
	}
	// Plan the split from measured rates when the estimator has seen
	// every slice worker; from the nominal prior otherwise (round 0, or
	// a worker newly back from quarantine).
	rates, comm := est.Rates(), est.CommSeconds()
	if !est.Trusted(slice) {
		rates, comm = prior, nil
		if rep.Rounds > 0 {
			rep.Fallbacks++
		}
	}
	unit := make([]float64, len(slice))
	c := make([]float64, len(slice))
	for i, w := range slice {
		if rates[w] <= 0 {
			return nil, fmt.Errorf("service: iterative round: worker %d rate %v", w, rates[w])
		}
		unit[i] = 1 / rates[w]
		if comm != nil {
			c[i] = comm[w]
		}
	}
	split, err := iterative.WaterFill(iterative.Params{
		Unit: unit, Comm: c, Load: float64(spec.N) * float64(spec.N),
	})
	if err != nil {
		return nil, fmt.Errorf("service: iterative round split: %w", err)
	}
	h, err := f.Submit(JobSpec{
		Tenant:     spec.Tenant,
		N:          spec.N,
		Strategy:   "wf",
		Weights:    split.Kappa,
		A:          x,
		B:          x,
		Deadline:   spec.RoundDeadline,
		MaxWorkers: spec.MaxWorkers,
	})
	if err != nil {
		return nil, err
	}
	job, err := h.Wait(f.ctx)
	if err != nil {
		// The round's trace still carries real measurements (and real
		// evidence of why it failed); feed the estimator before retrying.
		if job != nil {
			est.ObserveRound(job.Trace)
		}
		return nil, err
	}
	return job, nil
}

// normalizeL2 scales v to unit L2 norm in place (zero vectors unchanged).
func normalizeL2(v []float64) {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	if s == 0 {
		return
	}
	inv := 1 / math.Sqrt(s)
	for i := range v {
		v[i] *= inv
	}
}

// argmaxAbs returns the index of the largest-magnitude entry.
func argmaxAbs(v []float64) int {
	best, bi := math.Inf(-1), 0
	for i, x := range v {
		if a := math.Abs(x); a > best {
			best, bi = a, i
		}
	}
	return bi
}
