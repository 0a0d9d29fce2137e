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
