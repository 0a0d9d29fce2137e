package dlt

import (
	"errors"

	"nlfl/internal/dessim"
	"nlfl/internal/platform"
	"nlfl/internal/trace"
)

// MultiRoundUniform splits an allocation's shares into `rounds` equal
// installments per worker, emitted round by round. Because a worker's link
// and CPU are distinct resources, later installments stream in while
// earlier ones compute — the multi-round pipelining described in
// Section 1.2 ("the workers will be able to compute the current chunk
// while receiving data for the next one").
func MultiRoundUniform(a Allocation, n float64, rounds int) ([]dessim.Chunk, error) {
	if rounds <= 0 {
		return nil, errors.New("dlt: rounds must be positive")
	}
	var chunks []dessim.Chunk
	for r := 0; r < rounds; r++ {
		for i, f := range a.Fractions {
			d := f * n / float64(rounds)
			if d == 0 {
				continue
			}
			chunks = append(chunks, dessim.Chunk{Worker: i, Data: d, Work: d})
		}
	}
	return chunks, nil
}

// MultiRoundGeometric splits the allocation into `rounds` installments
// whose sizes change geometrically by `ratio` per round (ratio = 1
// recovers MultiRoundUniform). The right shape depends on the overheads:
// with per-round latencies, classical multi-round DLT grows installments
// (ratio > 1) to amortize them; in the pure bandwidth model simulated
// here, a *decreasing* schedule (ratio < 1) wins instead — the final
// installment's computation is the only work that cannot overlap
// anything, so it should be the smallest.
func MultiRoundGeometric(a Allocation, n float64, rounds int, ratio float64) ([]dessim.Chunk, error) {
	if rounds <= 0 {
		return nil, errors.New("dlt: rounds must be positive")
	}
	if ratio <= 0 {
		return nil, errors.New("dlt: ratio must be positive")
	}
	// Round weights: 1, r, r², …, normalized.
	weights := make([]float64, rounds)
	total := 0.0
	w := 1.0
	for i := range weights {
		weights[i] = w
		total += w
		w *= ratio
	}
	for i := range weights {
		weights[i] /= total
	}
	var chunks []dessim.Chunk
	for _, rw := range weights {
		for i, f := range a.Fractions {
			d := f * n * rw
			if d == 0 {
				continue
			}
			chunks = append(chunks, dessim.Chunk{Worker: i, Data: d, Work: d})
		}
	}
	return chunks, nil
}

// SimulatedMakespan executes chunks on the platform under the given
// communication model and returns the measured makespan. It is the bridge
// from closed-form DLT results to the discrete-event simulator used for
// cross-validation.
func SimulatedMakespan(p *platform.Platform, chunks []dessim.Chunk, mode dessim.CommMode) (float64, error) {
	tl, err := SimulatedTimeline(p, chunks, mode)
	if err != nil {
		return 0, err
	}
	return tl.Makespan, nil
}

// SimulatedTimeline executes chunks like SimulatedMakespan but returns the
// full structured trace, already passed through the trace invariant
// checker.
func SimulatedTimeline(p *platform.Platform, chunks []dessim.Chunk, mode dessim.CommMode) (*trace.Timeline, error) {
	tl, err := dessim.RunSingleRound(p, chunks, mode)
	if err != nil {
		return nil, err
	}
	if err := trace.Must(trace.Check(tl, nil)); err != nil {
		return nil, err
	}
	return tl, nil
}
