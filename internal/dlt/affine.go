package dlt

import (
	"errors"
	"fmt"
	"math"

	"nlfl/internal/platform"
	"nlfl/internal/solve"
)

// AffineCosts extends the bandwidth-only model with per-worker
// communication latencies: sending X units to worker i takes
// Lᵢ + cᵢ·X. Latencies are the classical DLT refinement that makes
// *resource selection* non-trivial — a worker whose latency exceeds the
// makespan budget should receive nothing at all, which the plain model
// can never conclude.
type AffineCosts struct {
	// Latency[i] is Lᵢ ≥ 0, in time units.
	Latency []float64
}

// Validate checks the latency vector against the platform.
func (a AffineCosts) Validate(p *platform.Platform) error {
	if len(a.Latency) != p.P() {
		return fmt.Errorf("dlt: %d latencies for %d workers", len(a.Latency), p.P())
	}
	for i, l := range a.Latency {
		if l < 0 || math.IsNaN(l) || math.IsInf(l, 0) {
			return fmt.Errorf("dlt: latency %d is %v", i, l)
		}
	}
	return nil
}

// OptimalParallelAffine solves the single-round allocation under parallel
// links with affine communication costs: worker i finishing its share
// αᵢ·n at time Lᵢ + αᵢ·n·(cᵢ + wᵢ). The optimum equalizes finish times
// among *participating* workers at some T, with
// αᵢ·n = max(0, (T - Lᵢ)/(cᵢ+wᵢ)); workers whose latency exceeds T drop
// out naturally. Solved by solve.Level on T (the total allocated load is
// non-decreasing in T).
func OptimalParallelAffine(p *platform.Platform, costs AffineCosts, n float64) (Allocation, error) {
	if n < 0 {
		return Allocation{}, errors.New("dlt: negative load")
	}
	if err := costs.Validate(p); err != nil {
		return Allocation{}, err
	}
	// loadAt fills fr with each worker's load at makespan t and returns
	// their sum.
	fr := make([]float64, p.P())
	loadAt := func(t float64) float64 {
		sum := 0.0
		for i := range fr {
			fr[i] = 0
			if t > costs.Latency[i] {
				w := p.Worker(i)
				fr[i] = (t - costs.Latency[i]) / (1/w.Bandwidth + 1/w.Speed)
			}
			sum += fr[i]
		}
		return sum
	}
	_, hi, err := solve.Level(loadAt, n, func(hi float64) float64 { return 1e-14 * (1 + hi) })
	if err != nil {
		return Allocation{}, fmt.Errorf("dlt: failed to bracket the makespan: %w", err)
	}
	total := loadAt(hi)
	if total == 0 {
		return Allocation{}, errors.New("dlt: no worker can participate")
	}
	// Normalize the residual bisection slack so fractions sum exactly to 1
	// (n > 0) — the makespan error stays within the bisection tolerance.
	for i := range fr {
		fr[i] /= total
	}
	return Allocation{Fractions: fr, Makespan: hi}, nil
}

// ParticipantCount returns how many workers received a positive share.
func ParticipantCount(a Allocation) int {
	n := 0
	for _, f := range a.Fractions {
		if f > 1e-12 {
			n++
		}
	}
	return n
}
