package iterative

import (
	"fmt"
	"math"

	"nlfl/internal/trace"
)

// The estimator's gains and gates.
const (
	// ewmaAlpha is the EWMA gain for in-tolerance samples.
	ewmaAlpha float64 = 0.5
	// driftTol is the relative departure |sample−estimate|/estimate beyond
	// which a sample is *not* folded into the EWMA — it is either a
	// one-round outlier (ignored) or the start of genuine drift.
	driftTol float64 = 0.25
	// driftRounds is how many consecutive beyond-tolerance rounds promote
	// an outlier streak into detected drift, re-anchoring the estimate to
	// the streak mean. A shorter streak leaves the estimate untouched —
	// the "single chaotic round" protection.
	driftRounds int = 2
	// minRounds is the per-worker sample count before the estimator is
	// trusted for planning.
	minRounds int = 1
)

// Estimator tracks per-worker compute rates (cells/s) and per-round
// communication seconds from measured trace spans. It is the sensor of
// the feedback loop: EWMA smoothing over in-tolerance samples, outright
// rejection of isolated outliers, re-anchoring after a persistent drift
// streak, and explicit trust gating so a controller never plans from
// measurements that are too thin. Not safe for concurrent use.
type Estimator struct {
	rate     []float64 // EWMA compute rate, cells/s
	rateVar  []float64 // EWMA of squared rate deviation
	commSec  []float64 // EWMA per-round comm seconds
	samples  []int     // rounds this worker produced any sample
	streak   []int     // consecutive beyond-driftTol rounds
	streakMu []float64 // running sum of the streak's rate samples
	dead     []bool

	reanchors int
	frozen    bool
}

// NewEstimator builds an estimator seeded with prior per-worker rates in
// cells/s (typically speedᵢ·WorkPerSecond — the assumption the measured
// loop exists to correct).
func NewEstimator(prior []float64) (*Estimator, error) {
	if len(prior) == 0 {
		return nil, fmt.Errorf("iterative: estimator needs at least one prior rate")
	}
	for i, r := range prior {
		if r <= 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return nil, fmt.Errorf("iterative: worker %d prior rate %v", i, r)
		}
	}
	p := len(prior)
	return &Estimator{
		rate:     append([]float64(nil), prior...),
		rateVar:  make([]float64, p),
		commSec:  make([]float64, p),
		samples:  make([]int, p),
		streak:   make([]int, p),
		streakMu: make([]float64, p),
		dead:     make([]bool, p),
	}, nil
}

// Workers returns the tracked pool size.
func (e *Estimator) Workers() int { return len(e.rate) }

// ObserveRound folds one round's timeline into the estimates: each
// worker's rate sample is its OK compute work divided by OK compute
// seconds, its comm sample the OK transfer seconds. Returns the workers
// whose estimates were re-anchored by drift detection this round — the
// controller's cue to re-plan immediately. A frozen estimator still
// counts samples (the rounds happened) but never updates an estimate.
func (e *Estimator) ObserveRound(tl *trace.Timeline) []int {
	if tl == nil {
		return nil
	}
	var drifted []int
	for w := 0; w < len(e.rate) && w < len(tl.Spans); w++ {
		if e.dead[w] {
			continue
		}
		var work, computeSec, commSec float64
		for _, s := range tl.Spans[w] {
			if s.Outcome != trace.OK {
				continue
			}
			switch s.Kind {
			case trace.Compute:
				work += s.Work
				computeSec += s.Duration()
			case trace.Comm:
				commSec += s.Duration()
			}
		}
		if work <= 0 || computeSec <= 0 {
			continue // no usable sample this round
		}
		if e.observe(w, work/computeSec, commSec) {
			drifted = append(drifted, w)
		}
	}
	return drifted
}

// observe folds one worker's round sample; true means drift re-anchored
// the estimate.
func (e *Estimator) observe(w int, rate, commSec float64) bool {
	e.samples[w]++
	if e.frozen {
		return false
	}
	if d := math.Abs(rate-e.rate[w]) / e.rate[w]; d > driftTol {
		// Beyond tolerance: never folded directly. One such round is an
		// outlier and changes nothing; driftRounds consecutive ones are
		// drift, and the estimate snaps to the streak mean — the measured
		// regime, not a blend with the stale one.
		e.streak[w]++
		e.streakMu[w] += rate
		if e.streak[w] < driftRounds {
			return false
		}
		e.rate[w] = e.streakMu[w] / float64(e.streak[w])
		e.rateVar[w] = 0
		e.streak[w], e.streakMu[w] = 0, 0
		e.commSec[w] = (1-ewmaAlpha)*e.commSec[w] + ewmaAlpha*commSec
		e.reanchors++
		return true
	}
	e.streak[w], e.streakMu[w] = 0, 0
	dev := rate - e.rate[w]
	e.rate[w] = (1-ewmaAlpha)*e.rate[w] + ewmaAlpha*rate
	e.rateVar[w] = (1-ewmaAlpha)*e.rateVar[w] + ewmaAlpha*dev*dev
	e.commSec[w] = (1-ewmaAlpha)*e.commSec[w] + ewmaAlpha*commSec
	return false
}

// Freeze stops all estimate updates while still counting samples — the
// "lying estimates" injection: the controller believes it has fresh
// measurements, but they never track reality again.
func (e *Estimator) Freeze() { e.frozen = true }

// MarkDead excludes a worker from observation and trust accounting.
func (e *Estimator) MarkDead(w int) {
	if w >= 0 && w < len(e.dead) {
		e.dead[w] = true
	}
}

// Dead reports whether w has been marked dead.
func (e *Estimator) Dead(w int) bool { return w >= 0 && w < len(e.dead) && e.dead[w] }

// Reanchors returns the total drift re-anchor events.
func (e *Estimator) Reanchors() int { return e.reanchors }

// Trusted reports whether every listed worker has produced at least
// minRounds samples — the confidence gate: planning over an untrusted
// estimator falls back to the last trusted plan instead.
func (e *Estimator) Trusted(workers []int) bool {
	for _, w := range workers {
		if w < 0 || w >= len(e.samples) {
			return false
		}
		if !e.dead[w] && e.samples[w] < minRounds {
			return false
		}
	}
	return true
}

// Rates returns a copy of the current per-worker rate estimates (cells/s).
func (e *Estimator) Rates() []float64 { return append([]float64(nil), e.rate...) }

// CommSeconds returns a copy of the per-round communication-seconds
// estimates.
func (e *Estimator) CommSeconds() []float64 { return append([]float64(nil), e.commSec...) }

// UnitStds returns the per-worker standard deviation of the *unit time*
// 1/rate in seconds — the σᵢ the nonlinear water-filling penalty wants —
// propagated from the rate variance as std(rate)/rate².
func (e *Estimator) UnitStds() []float64 {
	out := make([]float64, len(e.rate))
	for w := range out {
		out[w] = math.Sqrt(e.rateVar[w]) / (e.rate[w] * e.rate[w])
	}
	return out
}
