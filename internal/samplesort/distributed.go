package samplesort

import (
	"fmt"
	"math"

	"nlfl/internal/dessim"
	"nlfl/internal/platform"
	"nlfl/internal/trace"
)

// Section 3 closes by noting that because sorting reduces to a divisible
// load, "optimizing the data distribution phase to slave processors under
// more complicated communication models ... is meaningful". This file
// makes that claim executable: it models the full distributed sample sort
// on a star platform — master-side sample sort and routing, bucket
// shipment over the network, parallel bucket sorts — and reports the
// phase breakdown and speedup under both communication models.

// DistributedCost is the simulated execution of one distributed sample
// sort. All times are in comparison-units (computation) and element-units
// over bandwidth (communication), on the platform's clock.
type DistributedCost struct {
	N int
	P int
	// Step1 is the master-side sample sort time (s·p·log(s·p) at unit
	// master speed).
	Step1 float64
	// Step2 is the master-side routing time (N·log p).
	Step2 float64
	// CommMakespan is when the last bucket finishes arriving.
	CommMakespan float64
	// Makespan is the full completion time.
	Makespan float64
	// Sequential is the single-machine reference N·log N at the speed of
	// the fastest worker.
	Sequential float64
	// BucketSizes echoes the routed bucket sizes.
	BucketSizes []int
	// Trace is the worker-side span record (bucket shipments and sorts),
	// shifted by the master-side Steps 1–2 so span times are on the job's
	// clock.
	Trace *trace.Timeline `json:"-"`
}

// Speedup returns Sequential/Makespan.
func (d DistributedCost) Speedup() float64 {
	if d.Makespan == 0 {
		return 0
	}
	return d.Sequential / d.Makespan
}

// SimulateDistributed runs the three-phase sample sort of Section 3 on
// the platform: buckets are sized by speed-proportional splitters
// (Section 3.2), shipped as single chunks under the chosen communication
// model, and sorted at wᵢ·nᵢ·log nᵢ on their workers. The master has unit
// speed for Steps 1–2. Keys are synthetic uniform variates; only sizes
// matter for the cost model.
func SimulateDistributed(pl *platform.Platform, n int, cfg Config, mode dessim.CommMode) (DistributedCost, error) {
	if n < 1 {
		return DistributedCost{}, fmt.Errorf("samplesort: invalid N %d", n)
	}
	p := pl.P()
	out := DistributedCost{N: n, P: p}
	if cfg.Oversampling == 0 {
		cfg.Oversampling = DefaultOversampling(n)
	}
	// Master-side phases (unit master speed).
	sp := float64(cfg.Oversampling * p)
	if sp > float64(n) {
		sp = float64(n)
	}
	if sp > 1 {
		out.Step1 = sp * math.Log2(sp)
	}
	if p > 1 {
		out.Step2 = float64(n) * math.Log2(float64(p))
	}
	offset := out.Step1 + out.Step2

	// Bucket sizes: expected speed-proportional shares with the sampling
	// fluctuation absorbed by rounding (the concentration behaviour is
	// covered by CheckConcentration; here we take the modelled sizes so
	// the simulation is a deterministic cost model).
	shares := pl.NormalizedSpeeds()
	sizes := make([]int, p)
	assigned := 0
	for i := 0; i < p-1; i++ {
		sizes[i] = int(shares[i] * float64(n))
		assigned += sizes[i]
	}
	sizes[p-1] = n - assigned
	out.BucketSizes = sizes

	// Ship buckets and sort them, via the star simulator. Compute work of
	// bucket i is nᵢ·log₂ nᵢ comparisons.
	chunks := make([]dessim.Chunk, 0, p)
	for i, sz := range sizes {
		work := 0.0
		if sz > 1 {
			work = float64(sz) * math.Log2(float64(sz))
		}
		chunks = append(chunks, dessim.Chunk{Worker: i, Data: float64(sz), Work: work})
	}
	tl, err := dessim.RunSingleRound(pl, chunks, mode)
	if err != nil {
		return out, err
	}
	if err := trace.Must(trace.Check(tl, nil)); err != nil {
		return out, err
	}
	commEnd := 0.0
	for _, spans := range tl.Spans {
		for _, s := range spans {
			if s.Kind == trace.Comm && s.End > commEnd {
				commEnd = s.End
			}
		}
	}
	out.CommMakespan = offset + commEnd
	out.Makespan = offset + tl.Makespan
	tl.Shift(offset)
	out.Trace = tl
	out.Sequential = float64(n) * math.Log2(float64(n)) / pl.MaxSpeed()
	return out, nil
}
