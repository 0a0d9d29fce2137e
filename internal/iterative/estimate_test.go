package iterative

import (
	"math"
	"testing"

	"nlfl/internal/trace"
)

// roundTimeline builds a one-round timeline where worker w computed
// `work` cells over `sec` seconds and spent `commSec` on OK transfers.
func roundTimeline(p int, rows map[int][3]float64) *trace.Timeline {
	tl := trace.New(p)
	for w, r := range rows {
		work, sec, commSec := r[0], r[1], r[2]
		tl.Add(w, trace.Span{Kind: trace.Comm, Start: 0, End: commSec, Data: 10, Task: w})
		tl.Add(w, trace.Span{Kind: trace.Compute, Start: commSec, End: commSec + sec, Work: work, Task: w})
	}
	return tl
}

func newTestEstimator(t *testing.T, prior ...float64) *Estimator {
	t.Helper()
	e, err := NewEstimator(prior)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEstimatorFoldsInToleranceSamples(t *testing.T) {
	e := newTestEstimator(t, 1000)
	// Steady samples at 1100 cells/s (10% off, inside driftTol 0.25):
	// EWMA with α=0.5 converges geometrically onto the measurement.
	for i := 0; i < 8; i++ {
		e.ObserveRound(roundTimeline(1, map[int][3]float64{0: {1100, 1, 0.001}}))
	}
	if r := e.Rates()[0]; math.Abs(r-1100) > 5 {
		t.Fatalf("rate = %v, want ≈ 1100", r)
	}
	if c := e.CommSeconds()[0]; math.Abs(c-0.001) > 1e-4 {
		t.Fatalf("comm seconds = %v, want ≈ 0.001", c)
	}
}

func TestEstimatorSingleOutlierIgnored(t *testing.T) {
	e := newTestEstimator(t, 1000)
	e.ObserveRound(roundTimeline(1, map[int][3]float64{0: {1000, 1, 0}}))
	before := e.Rates()[0]
	// One chaotic round at a tenth of the rate: the estimate must not move.
	if drifted := e.ObserveRound(roundTimeline(1, map[int][3]float64{0: {100, 1, 0}})); drifted != nil {
		t.Fatalf("single outlier reported as drift: %v", drifted)
	}
	if after := e.Rates()[0]; after != before {
		t.Fatalf("single chaotic round moved the estimate %v → %v", before, after)
	}
	// The next in-tolerance sample resets the streak.
	e.ObserveRound(roundTimeline(1, map[int][3]float64{0: {1000, 1, 0}}))
	e.ObserveRound(roundTimeline(1, map[int][3]float64{0: {100, 1, 0}}))
	if e.Reanchors() != 0 {
		t.Fatalf("non-consecutive outliers re-anchored (%d events)", e.Reanchors())
	}
}

func TestEstimatorDriftReanchors(t *testing.T) {
	e := newTestEstimator(t, 1000)
	e.ObserveRound(roundTimeline(1, map[int][3]float64{0: {500, 1, 0}}))
	drifted := e.ObserveRound(roundTimeline(1, map[int][3]float64{0: {480, 1, 0}}))
	if len(drifted) != 1 || drifted[0] != 0 {
		t.Fatalf("2 consecutive departures did not report drift: %v", drifted)
	}
	// Re-anchored to the streak mean, not EWMA-blended with the stale 1000.
	if r := e.Rates()[0]; math.Abs(r-490) > 1e-9 {
		t.Fatalf("re-anchored rate = %v, want 490 (streak mean)", r)
	}
	if e.Reanchors() != 1 {
		t.Fatalf("Reanchors = %d, want 1", e.Reanchors())
	}
}

// TestEstimatorUpwardDriftNotDegraded: a worker that sped up is
// re-anchored upward to its streak mean, as a slowed one is downward.
func TestEstimatorUpwardDriftNotDegraded(t *testing.T) {
	e := newTestEstimator(t, 1000)
	e.ObserveRound(roundTimeline(1, map[int][3]float64{0: {2000, 1, 0}}))
	e.ObserveRound(roundTimeline(1, map[int][3]float64{0: {2000, 1, 0}}))
	if r := e.Rates()[0]; math.Abs(r-2000) > 1e-9 {
		t.Fatalf("rate = %v, want 2000", r)
	}
}

func TestEstimatorFrozenLies(t *testing.T) {
	e := newTestEstimator(t, 1000)
	e.Freeze()
	for i := 0; i < 4; i++ {
		e.ObserveRound(roundTimeline(1, map[int][3]float64{0: {200, 1, 0}}))
	}
	if r := e.Rates()[0]; r != 1000 {
		t.Fatalf("frozen estimator updated: rate = %v", r)
	}
	// The lie is convincing: samples accumulate, so the trust gate passes.
	if !e.Trusted([]int{0}) {
		t.Fatal("frozen estimator should still count samples and be trusted")
	}
}

func TestEstimatorTrustGate(t *testing.T) {
	e := newTestEstimator(t, 1000, 1000)
	if e.Trusted([]int{0, 1}) {
		t.Fatal("trusted with zero samples")
	}
	e.ObserveRound(roundTimeline(2, map[int][3]float64{0: {1000, 1, 0}}))
	if e.Trusted([]int{0, 1}) {
		t.Fatal("trusted with worker 1 still unsampled")
	}
	if !e.Trusted([]int{0}) {
		t.Fatal("not trusted after minRounds samples")
	}
	e.ObserveRound(roundTimeline(2, map[int][3]float64{1: {1000, 1, 0}}))
	if !e.Trusted([]int{0, 1}) {
		t.Fatal("not trusted after minRounds samples")
	}
	if e.Trusted([]int{0, 1, 5}) {
		t.Fatal("trusted an out-of-range worker")
	}
}

func TestEstimatorDeadWorkerExcluded(t *testing.T) {
	e := newTestEstimator(t, 1000, 1000)
	e.MarkDead(1)
	e.ObserveRound(roundTimeline(2, map[int][3]float64{0: {1000, 1, 0}, 1: {50, 1, 0}}))
	if !e.Dead(1) {
		t.Fatal("MarkDead did not stick")
	}
	if r := e.Rates()[1]; r != 1000 {
		t.Fatalf("dead worker's estimate moved to %v", r)
	}
	// Trust over a set including the dead worker ignores it.
	if !e.Trusted([]int{0, 1}) {
		t.Fatal("dead worker blocked trust")
	}
}

func TestEstimatorIgnoresNonOKSpans(t *testing.T) {
	e := newTestEstimator(t, 1000)
	tl := trace.New(1)
	// A wasted speculative copy and a killed span: neither is a sample.
	tl.Add(0, trace.Span{Kind: trace.Compute, Start: 0, End: 1, Work: 10, Task: 0, Outcome: trace.Wasted})
	tl.Add(0, trace.Span{Kind: trace.Compute, Start: 1, End: 2, Work: 10, Task: 1, Outcome: trace.Killed})
	e.ObserveRound(tl)
	if e.Trusted([]int{0}) {
		t.Fatal("non-OK spans produced a sample")
	}
	if r := e.Rates()[0]; r != 1000 {
		t.Fatalf("non-OK spans moved the estimate to %v", r)
	}
}

func TestEstimatorUnitStds(t *testing.T) {
	e := newTestEstimator(t, 1000)
	for i := 0; i < 6; i++ {
		s := 950.0
		if i%2 == 0 {
			s = 1050
		}
		e.ObserveRound(roundTimeline(1, map[int][3]float64{0: {s, 1, 0}}))
	}
	if std := e.UnitStds()[0]; std <= 0 {
		t.Fatalf("jittery worker has zero unit-time std (%v)", std)
	}
}

func TestNewEstimatorRejectsBadPriors(t *testing.T) {
	if _, err := NewEstimator(nil); err == nil {
		t.Fatal("accepted empty prior")
	}
	if _, err := NewEstimator([]float64{1000, 0}); err == nil {
		t.Fatal("accepted zero prior rate")
	}
}
