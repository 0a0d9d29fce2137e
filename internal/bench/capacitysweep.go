package bench

import (
	"context"
	"fmt"
	"math"
	goruntime "runtime"

	"nlfl/internal/capacity"
	"nlfl/internal/results"
)

// The capacity sweep runs a fixed envelope like the service sweep: an
// 8-worker fleet whose speed spread and constrained link put the
// speedup knee strictly inside the fleet — the case an operator
// actually needs a planner for. With these numbers T(1) ≈ 84 ms and the
// marginal speedup of the fifth worker (~2%) falls below θ = 5% while
// the fourth (~10%) clears it, so the knee is 4 of 8.
var capacitySpeeds = []float64{4, 4, 3, 3, 2, 2, 1, 1}

const (
	capacityAlpha = 2.0
	capacityN     = 96
	capacityRate  = 3e4   // cells/s per unit speed
	capacityBW    = 2.5e4 // master link elems/s
	capacityTheta = 0.05  // knee threshold: stop below 5% marginal speedup
	// capacitySimTol gates both executors: the model and the DES differ
	// only by integer-grid snapping of the PERI-SUM rectangles, a ≤ 2%
	// effect at N=96 with headroom to 5%, and the worker pool on the
	// virtual clock adds only its token-bucket and link-booking rounding.
	capacitySimTol = 0.05
)

// capacityModel is the sweep's planning question.
func capacityModel() capacity.Model {
	return capacity.Model{
		Alpha:         capacityAlpha,
		N:             capacityN,
		Speeds:        capacitySpeeds,
		WorkPerSecond: capacityRate,
		Bandwidth:     capacityBW,
	}
}

// RunCapacitySweep validates the capacity model at every slice size of
// the fixed envelope against both executors: the discrete-event
// simulator and the real worker-pool runtime on the virtual clock, both
// deterministic. Every observation is gated through
// capacity.CheckObservation at the stated tolerance before the file is
// considered valid — BENCH_capacity.json is the proof that `nlfl
// recommend` and the fleet autoscaler size slices from a model that
// matches what actually runs. A cancelled ctx aborts between slice
// sizes.
func RunCapacitySweep(ctx context.Context, cfg Config) (results.CapacityBenchFile, error) {
	m := capacityModel()
	file := results.CapacityBenchFile{
		Schema:            results.BenchCapacitySchema,
		Seed:              cfg.Seed,
		Alpha:             m.Alpha,
		N:                 m.N,
		Speeds:            m.Speeds,
		WorkPerSecond:     m.WorkPerSecond,
		Bandwidth:         m.Bandwidth,
		Theta:             capacityTheta,
		SimTolerance:      capacitySimTol,
		MeasuredTolerance: capacitySimTol,
		GoVersion:         goruntime.Version(),
	}
	rec, err := m.Recommend(capacityTheta)
	if err != nil {
		return file, fmt.Errorf("bench: capacity model: %w", err)
	}
	file.Knee = rec.Knee
	file.Best = rec.Best
	file.SpeedupBound = rec.SpeedupBound
	for p := 1; p <= len(m.Speeds); p++ {
		if err := ctx.Err(); err != nil {
			return file, err
		}
		pred := rec.Curve[p-1]
		entry := results.CapacityBenchEntry{
			Workers:              p,
			PredictedVolume:      pred.CommVolume,
			PredictedMakespan:    pred.Makespan,
			Speedup:              pred.Speedup,
			UnprocessedIfChunked: pred.UnprocessedIfChunked,
		}
		if p > 1 {
			entry.MarginalGain = pred.Speedup/rec.Curve[p-2].Speedup - 1
		}
		sim, err := m.SimulateMakespan(p)
		if err != nil {
			return file, fmt.Errorf("bench: capacity sim p=%d: %w", p, err)
		}
		if err := m.CheckObservation(p, sim, capacitySimTol); err != nil {
			return file, fmt.Errorf("bench: %w", err)
		}
		entry.SimMakespan = sim
		entry.SimRelErr = math.Abs(sim-pred.Makespan) / pred.Makespan
		meas, err := m.MeasureMakespan(ctx, p, cfg.Seed)
		if err != nil {
			return file, fmt.Errorf("bench: capacity measure p=%d: %w", p, err)
		}
		if err := m.CheckObservation(p, meas, file.MeasuredTolerance); err != nil {
			return file, fmt.Errorf("bench: %w", err)
		}
		entry.MeasuredMakespan = meas
		entry.MeasuredRelErr = math.Abs(meas-pred.Makespan) / pred.Makespan
		file.Entries = append(file.Entries, entry)
	}
	return file, nil
}

// ValidateCapacity is the schema check for a BENCH_capacity payload:
// right schema id, the full 1..P slice coverage, finite fields, both
// observation columns inside their stated tolerances, neither looser
// than the 5% gate, a knee that exists strictly inside the fleet and is
// consistent with the marginal gains, a closed-form speedup ceiling
// above 1, and no speedup above it.
func ValidateCapacity(f results.CapacityBenchFile) error {
	if f.Schema != results.BenchCapacitySchema {
		return invalid("schema %q, want %q", f.Schema, results.BenchCapacitySchema)
	}
	if len(f.Speeds) == 0 {
		return invalid("no speed profile")
	}
	if len(f.Entries) != len(f.Speeds) {
		return invalid("%d entries for %d slice sizes", len(f.Entries), len(f.Speeds))
	}
	for _, v := range []struct {
		name  string
		value float64
	}{
		{"alpha", f.Alpha},
		{"workPerSecond", f.WorkPerSecond},
		{"bandwidth", f.Bandwidth},
		{"theta", f.Theta},
		{"simTolerance", f.SimTolerance},
		{"measuredTolerance", f.MeasuredTolerance},
		{"speedupBound", f.SpeedupBound},
	} {
		if !finite(v.value) || v.value <= 0 {
			return invalid("non-positive or non-finite %s %v", v.name, v.value)
		}
	}
	if f.SimTolerance > capacitySimTol || f.MeasuredTolerance > capacitySimTol {
		return invalid("stated tolerances %v/%v looser than the %v gate", f.SimTolerance, f.MeasuredTolerance, capacitySimTol)
	}
	if f.SpeedupBound <= 1 {
		return invalid("speedup bound %v: a fleet whose ceiling is 1 has nothing to plan", f.SpeedupBound)
	}
	if f.N <= 0 {
		return invalid("non-positive n %d", f.N)
	}
	if f.Knee < 1 || f.Knee >= len(f.Speeds) {
		return invalid("knee %d not strictly inside [1, %d) — the envelope must make the planner earn its keep",
			f.Knee, len(f.Speeds))
	}
	if f.Best < f.Knee || f.Best > len(f.Speeds) {
		return invalid("best %d inconsistent with knee %d", f.Best, f.Knee)
	}
	for i, e := range f.Entries {
		id := fmt.Sprintf("entry %d (p=%d)", i, e.Workers)
		if e.Workers != i+1 {
			return invalid("%s: slice sizes must cover 1..%d in order", id, len(f.Speeds))
		}
		for _, v := range []struct {
			name  string
			value float64
		}{
			{"predictedVolume", e.PredictedVolume},
			{"predictedMakespan", e.PredictedMakespan},
			{"simMakespan", e.SimMakespan},
			{"measuredMakespan", e.MeasuredMakespan},
			{"speedup", e.Speedup},
		} {
			if !finite(v.value) || v.value <= 0 {
				return invalid("%s: non-positive or non-finite %s %v", id, v.name, v.value)
			}
		}
		if !finite(e.SimRelErr) || math.Abs(e.SimRelErr) > f.SimTolerance {
			return invalid("%s: simulator disagrees by %.4f (> %.2f) — the model is wrong or the DES drifted",
				id, e.SimRelErr, f.SimTolerance)
		}
		if !finite(e.MeasuredRelErr) || math.Abs(e.MeasuredRelErr) > f.MeasuredTolerance {
			return invalid("%s: measured runtime disagrees by %.4f (> %.2f)",
				id, e.MeasuredRelErr, f.MeasuredTolerance)
		}
		if e.Speedup > f.SpeedupBound*(1+1e-9) {
			return invalid("%s: speedup %.4f exceeds the closed-form bound %.4f", id, e.Speedup, f.SpeedupBound)
		}
		if !finite(e.UnprocessedIfChunked) || e.UnprocessedIfChunked < 0 || e.UnprocessedIfChunked >= 1 {
			return invalid("%s: unprocessed fraction %v outside [0, 1)", id, e.UnprocessedIfChunked)
		}
		if i == 0 {
			if e.Speedup != 1 || e.MarginalGain != 0 {
				return invalid("%s: p=1 must anchor speedup 1 with zero marginal gain", id)
			}
			continue
		}
		// The knee scan's trace must be visible in the file: every step up
		// to the knee cleared θ, the step past it did not.
		if e.Workers <= f.Knee && e.MarginalGain < f.Theta {
			return invalid("%s: marginal gain %.4f below theta %.2f inside the knee", id, e.MarginalGain, f.Theta)
		}
		if e.Workers == f.Knee+1 && e.MarginalGain >= f.Theta {
			return invalid("%s: marginal gain %.4f at the knee+1 step should fall below theta %.2f",
				id, e.MarginalGain, f.Theta)
		}
	}
	return nil
}
