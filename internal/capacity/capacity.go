package capacity

import (
	"fmt"
	"math"
	"sort"

	"nlfl/internal/core"
	"nlfl/internal/nldlt"
	"nlfl/internal/platform"
)

// Model is a capacity-planning question: a workload class (cost N^α for
// a size-N input), a fleet speed profile, the token-bucket rate scale
// and the shared one-port master-link bandwidth. Every prediction below
// is for the replicate-and-partition execution the paper prescribes for
// non-linear loads (Section 4): the N^(α/2) × N^(α/2) computation domain
// is cut into one PERI-SUM rectangle per worker, areas proportional to
// speeds, inputs shipped over the serialized master link.
//
// The model deliberately prices the *right* execution, not the broken
// one: input chunking — the DLT reflex the paper refutes — would leave a
// 1 − 1/p^(α-1) fraction of the work undone no matter the fleet size
// (Prediction.UnprocessedIfChunked reports that trap for reference).
type Model struct {
	// Alpha is the workload's cost exponent: processing a size-N input
	// costs N^α cell updates. Alpha must be ≥ 1; the planner's interest
	// is α > 1, where DLT-style input chunking stops working.
	Alpha float64
	// N is the input size. The computation domain then holds N^α cells.
	N int
	// Speeds are the candidate workers' relative speeds (all positive).
	// Predictions for p workers always use the p fastest.
	Speeds []float64
	// WorkPerSecond is the cell-update rate of a speed-1 worker — the
	// same token-bucket scale runtime.Options and service.Config use.
	WorkPerSecond float64
	// Bandwidth is the shared master link's rate in input elements per
	// second, serialized one-port style across the fleet; 0 means the
	// link is not the bottleneck (transfers at memcpy speed).
	Bandwidth float64
}

// Prediction is the model's forecast for one fleet-slice size.
type Prediction struct {
	// Workers is the slice size p (the p fastest of Model.Speeds).
	Workers int `json:"workers"`
	// CommVolume is the PERI-SUM plan's input volume Σ(wᵢ+hᵢ)·N^(α/2),
	// in elements — the continuous closed form before integer snapping.
	CommVolume float64 `json:"commVolume"`
	// CommTime is the serialized transfer time CommVolume/Bandwidth
	// (0 when the link is unconstrained).
	CommTime float64 `json:"commTime"`
	// ComputeTime is the balanced compute phase N^α/(R·Σᵢ≤ₚ sᵢ): areas
	// are proportional to speeds, so every worker computes for the same
	// time.
	ComputeTime float64 `json:"computeTime"`
	// Makespan is CommTime + ComputeTime — the one-port model's finish
	// time for the last-served worker, which is the job's finish time
	// because compute phases are balanced.
	Makespan float64 `json:"makespan"`
	// Speedup is Makespan(1 fastest worker)/Makespan(p).
	Speedup float64 `json:"speedup"`
	// UnprocessedIfChunked is the 1 − 1/p^(α-1) fraction of the work
	// that *input chunking* would leave undone at this worker count —
	// the paper's Section 2 trap, reported so operators see what the
	// partition-the-computation plan is buying them.
	UnprocessedIfChunked float64 `json:"unprocessedIfChunked"`
}

// Validate checks the model's inputs.
func (m Model) Validate() error {
	if m.Alpha < 1 || math.IsNaN(m.Alpha) || math.IsInf(m.Alpha, 0) {
		return fmt.Errorf("capacity: alpha %v must be ≥ 1", m.Alpha)
	}
	if m.N < 1 {
		return fmt.Errorf("capacity: input size n=%d", m.N)
	}
	if len(m.Speeds) == 0 {
		return fmt.Errorf("capacity: need at least one worker speed")
	}
	for i, s := range m.Speeds {
		if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
			return fmt.Errorf("capacity: worker %d has invalid speed %v", i, s)
		}
	}
	if m.WorkPerSecond <= 0 || math.IsNaN(m.WorkPerSecond) || math.IsInf(m.WorkPerSecond, 0) {
		return fmt.Errorf("capacity: invalid work rate %v", m.WorkPerSecond)
	}
	if m.Bandwidth < 0 || math.IsNaN(m.Bandwidth) || math.IsInf(m.Bandwidth, 0) {
		return fmt.Errorf("capacity: invalid bandwidth %v", m.Bandwidth)
	}
	return nil
}

// work returns the workload's total cost N^α in cells.
func (m Model) work() float64 {
	return math.Pow(float64(m.N), m.Alpha)
}

// side returns the computation domain's side N^(α/2): the domain holding
// N^α cells, which the outer-product case (α=2) makes the familiar N×N.
func (m Model) side() float64 {
	return math.Pow(float64(m.N), m.Alpha/2)
}

// fastest returns the p largest speeds, descending.
func (m Model) fastest(p int) []float64 {
	s := append([]float64(nil), m.Speeds...)
	sort.Sort(sort.Reverse(sort.Float64Slice(s)))
	return s[:p]
}

// PredictSlice forecasts the makespan of the replicate-and-partition
// plan on the p fastest workers: PERI-SUM volume over the serialized
// link plus the balanced compute phase.
func (m Model) PredictSlice(p int) (Prediction, error) {
	if err := m.Validate(); err != nil {
		return Prediction{}, err
	}
	if p < 1 || p > len(m.Speeds) {
		return Prediction{}, fmt.Errorf("capacity: slice size %d not in [1, %d]", p, len(m.Speeds))
	}
	pred, err := m.predict(p)
	if err != nil {
		return Prediction{}, err
	}
	if p == 1 {
		pred.Speedup = 1
		return pred, nil
	}
	base, err := m.predict(1)
	if err != nil {
		return Prediction{}, err
	}
	pred.Speedup = base.Makespan / pred.Makespan
	return pred, nil
}

// predict is PredictSlice without input validation or the speedup base.
func (m Model) predict(p int) (Prediction, error) {
	speeds := m.fastest(p)
	pl, err := platform.FromSpeeds(speeds)
	if err != nil {
		return Prediction{}, fmt.Errorf("capacity: %w", err)
	}
	plan, err := core.PlanOuterProduct(pl, m.side())
	if err != nil {
		return Prediction{}, fmt.Errorf("capacity: %w", err)
	}
	pred := Prediction{
		Workers:              p,
		CommVolume:           plan.TotalVolume,
		ComputeTime:          m.work() / (m.WorkPerSecond * pl.TotalSpeed()),
		UnprocessedIfChunked: nldlt.UnprocessedFraction(p, m.Alpha),
	}
	if m.Bandwidth > 0 {
		pred.CommTime = pred.CommVolume / m.Bandwidth
	}
	pred.Makespan = pred.CommTime + pred.ComputeTime
	return pred, nil
}

// Curve forecasts every slice size 1..len(Speeds). The raw per-p speedup
// is NOT monotone — past some p the extra input shipping outweighs the
// extra compute and the makespan worsens, which is exactly the signal
// the knee detector reads.
func (m Model) Curve() ([]Prediction, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	base, err := m.predict(1)
	if err != nil {
		return nil, err
	}
	base.Speedup = 1
	curve := make([]Prediction, len(m.Speeds))
	curve[0] = base
	for p := 2; p <= len(m.Speeds); p++ {
		pred, err := m.predict(p)
		if err != nil {
			return nil, err
		}
		pred.Speedup = base.Makespan / pred.Makespan
		curve[p-1] = pred
	}
	return curve, nil
}
