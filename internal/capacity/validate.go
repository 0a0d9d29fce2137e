package capacity

import (
	"context"
	"errors"
	"fmt"
	"math"

	"nlfl/internal/dessim"
	"nlfl/internal/platform"
	nrt "nlfl/internal/runtime"
	"nlfl/internal/stats"
)

// ErrModelMismatch marks a capacity prediction that disagrees with an
// observed makespan beyond the stated tolerance — either the platform
// description is wrong (speeds, rate, bandwidth) or the workload's α is
// mis-specified, and capacity plans built on it would mis-size fleets.
var ErrModelMismatch = errors.New("capacity: model prediction disagrees with observation")

// memcpyBandwidth stands in for an unconstrained link in the simulator:
// fast enough that transfer time vanishes next to compute, finite so the
// platform constructor accepts it.
const memcpyBandwidth = 1e18

// realSystem builds the concrete system both validators run: the N×N
// outer product (the α=2 workload the measured layer executes) planned
// by PlanHet over the p fastest speeds. The model's Alpha is
// deliberately NOT consulted here — validation exists to catch a model
// whose assumed law disagrees with what actually runs.
func (m Model) realSystem(p int) (*nrt.StrategyPlan, []float64, error) {
	if err := m.Validate(); err != nil {
		return nil, nil, err
	}
	if p < 1 || p > len(m.Speeds) {
		return nil, nil, fmt.Errorf("capacity: slice size %d not in [1, %d]", p, len(m.Speeds))
	}
	speeds := m.fastest(p)
	pl, err := platform.FromSpeeds(speeds)
	if err != nil {
		return nil, nil, fmt.Errorf("capacity: %w", err)
	}
	plan, err := nrt.PlanHet(pl, m.N)
	if err != nil {
		return nil, nil, fmt.Errorf("capacity: %w", err)
	}
	return plan, speeds, nil
}

// SimulateMakespan runs the discrete-event simulator over the snapped
// PERI-SUM plan on the p fastest workers — one-port serialized
// transfers, then each worker computes its own rectangle — and returns
// the simulated makespan in seconds. The DES differs from the model
// only by integer-grid snapping (the model prices the continuous
// rectangles), so agreement within a few percent is the expected
// outcome for any correctly-specified model.
func (m Model) SimulateMakespan(p int) (float64, error) {
	plan, speeds, err := m.realSystem(p)
	if err != nil {
		return 0, err
	}
	bw := m.Bandwidth
	if bw <= 0 {
		bw = memcpyBandwidth
	}
	workers := make([]platform.Worker, p)
	for i, s := range speeds {
		workers[i] = platform.Worker{Speed: s * m.WorkPerSecond, Bandwidth: bw}
	}
	pl, err := platform.New(workers)
	if err != nil {
		return 0, fmt.Errorf("capacity: %w", err)
	}
	chunks := make([]dessim.Chunk, len(plan.Chunks))
	for i, c := range plan.Chunks {
		chunks[i] = dessim.Chunk{Worker: c.Owner, Data: float64(c.Data()), Work: float64(c.Cells())}
	}
	tl, err := dessim.RunSingleRound(pl, chunks, dessim.OnePort)
	if err != nil {
		return 0, fmt.Errorf("capacity: %w", err)
	}
	return tl.Makespan, nil
}

// MeasureMakespan executes the same plan on the real worker-pool
// runtime — goroutine workers, token-bucket speeds, the bandwidth-
// modeled one-port link — on its virtual clock, and returns the run's
// makespan in modeled seconds. The run is deterministic, so one call is
// the observation, and it differs from the model only by the snapped
// plan and the token and link rounding, the simulator's tolerance.
func (m Model) MeasureMakespan(ctx context.Context, p int, seed int64) (float64, error) {
	plan, speeds, err := m.realSystem(p)
	if err != nil {
		return 0, err
	}
	r := stats.NewRNG(seed)
	a := stats.SampleN(stats.Uniform{Lo: -1, Hi: 1}, r, m.N)
	b := stats.SampleN(stats.Uniform{Lo: -1, Hi: 1}, r, m.N)
	rep, err := nrt.RunContext(ctx, plan, a, b, nrt.Options{
		Speeds:        speeds,
		WorkPerSecond: m.WorkPerSecond,
		Link:          nrt.Link{ElemsPerSecond: m.Bandwidth},
		// A tight bucket (0.1 ms of credit) keeps the throttle, not the
		// burst allowance, pacing the run — the regime the model prices.
		Burst:   m.WorkPerSecond * 1e-4,
		Virtual: true,
	})
	if err != nil {
		return 0, fmt.Errorf("capacity: %w", err)
	}
	return rep.Makespan, nil
}

// CheckObservation compares an observed makespan for a p-worker slice
// against the model's prediction and fails with ErrModelMismatch beyond
// the relative tolerance. This is the gate BENCH_capacity.json runs for
// both the simulated and the measured system — and the gate a
// deliberately mis-specified α cannot pass.
func (m Model) CheckObservation(p int, observed, relTol float64) error {
	pred, err := m.PredictSlice(p)
	if err != nil {
		return err
	}
	if observed <= 0 || math.IsNaN(observed) || math.IsInf(observed, 0) {
		return fmt.Errorf("capacity: invalid observed makespan %v", observed)
	}
	relErr := math.Abs(observed-pred.Makespan) / pred.Makespan
	if relErr > relTol {
		return fmt.Errorf("%w: p=%d predicted %.6fs, observed %.6fs (relative error %.3f > %.3f)",
			ErrModelMismatch, p, pred.Makespan, observed, relErr, relTol)
	}
	return nil
}
