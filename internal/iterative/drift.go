package iterative

import (
	"nlfl/internal/faults"
	nrt "nlfl/internal/runtime"
)

// Drift is the drifting-straggler scenario: worker Worker computes at
// Factor of its speed from round Round on, for the rest of the job. A
// negative Worker is a fleet that never drifts.
type Drift struct {
	Worker int
	Factor float64
	Round  int
}

// Chaos is the drift as Options.Chaos: from round d.Round on, every
// round's scenario (carrying seed) slows d.Worker from its start.
func (d Drift) Chaos(seed int64) func(round int) nrt.Chaos {
	return func(round int) nrt.Chaos {
		if d.Worker < 0 || round < d.Round {
			return nrt.Chaos{}
		}
		return nrt.Chaos{Scenario: faults.Scenario{Seed: seed, Events: []faults.Event{
			{Kind: faults.Straggler, Worker: d.Worker, Time: 0, Until: 1e9, Factor: d.Factor},
		}}}
	}
}

// OracleRates is the omniscient baseline's knowledge of the drift as
// Options.OracleRates: the nominal rates speeds[w]·workPerSecond, with the
// drift handed over the moment it starts.
func (d Drift) OracleRates(speeds []float64, workPerSecond float64) func(round int) []float64 {
	return func(round int) []float64 {
		rates := make([]float64, len(speeds))
		for w, s := range speeds {
			rates[w] = s * workPerSecond
		}
		if d.Worker >= 0 && round >= d.Round {
			rates[d.Worker] *= d.Factor
		}
		return rates
	}
}
