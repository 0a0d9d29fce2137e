package bench

import (
	"errors"
	"fmt"
	"math"

	"nlfl/internal/results"
)

// ErrInvalidBench marks a bench artifact that fails the schema gate.
var ErrInvalidBench = errors.New("bench: invalid artifact")

func invalid(path, format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s: %s", ErrInvalidBench, path, fmt.Sprintf(format, args...))
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Kernel throughput gates enforced on top of the schema check. They are
// deliberately slack multiples (timing noise, shared CI machines), not
// tight equalities — but slack enough only to absorb jitter, not a
// performance regression.
const (
	// parallelVsTiledFloor: at every n ≥ parallelGateMinN, the best
	// parallel-tiled entry must reach at least this fraction of the
	// single-threaded tiled throughput. On a single-CPU machine the
	// serial fallback makes the two the same code path, so a parallel
	// entry losing badly to tiled means the band split itself regressed.
	parallelVsTiledFloor = 0.95
	parallelGateMinN     = 256
	// parallelVsNaiveFloor: when the sweep includes n=1024 (the full,
	// non-quick configuration), the best parallel-tiled entry there must
	// beat the naive reference by at least this factor — the packed
	// register-blocked kernel's reason to exist.
	parallelVsNaiveFloor = 2.0
	gateN                = 1024
)

// ValidateKernels is the schema check for a BENCH_kernels payload: right
// schema id, a non-empty entry list, finite positive timings and
// throughputs, every entry equivalence-checked against the reference
// kernel — plus the throughput gates: parallel-tiled within
// parallelVsTiledFloor of tiled at every n ≥ parallelGateMinN, and (when
// the sweep includes n=1024) parallel-tiled at least parallelVsNaiveFloor
// times the naive throughput there.
func ValidateKernels(f results.KernelBenchFile) error {
	const path = KernelsFileName
	if f.Schema != results.BenchKernelsSchema {
		return invalid(path, "schema %q, want %q", f.Schema, results.BenchKernelsSchema)
	}
	if len(f.Entries) == 0 {
		return invalid(path, "no entries")
	}
	naive := map[int]float64{}        // n → naive GFLOPS
	tiled := map[int]float64{}        // n → tiled GFLOPS
	bestParallel := map[int]float64{} // n → best parallel-tiled GFLOPS
	for i, e := range f.Entries {
		id := fmt.Sprintf("entry %d (%s n=%d)", i, e.Kernel, e.N)
		if e.Kernel == "" || e.N <= 0 {
			return invalid(path, "%s: missing kernel name or size", id)
		}
		if !finite(e.Seconds) || e.Seconds <= 0 {
			return invalid(path, "%s: non-positive or non-finite seconds %v", id, e.Seconds)
		}
		if !finite(e.GFLOPS) || e.GFLOPS <= 0 {
			return invalid(path, "%s: zero or non-finite throughput %v GFLOPS", id, e.GFLOPS)
		}
		if !finite(e.MaxAbsErr) || e.MaxAbsErr > 1e-12 {
			return invalid(path, "%s: kernel deviates from reference by %v", id, e.MaxAbsErr)
		}
		if !e.Checked {
			return invalid(path, "%s: equivalence check did not run", id)
		}
		switch e.Kernel {
		case "naive":
			naive[e.N] = e.GFLOPS
		case "tiled":
			tiled[e.N] = e.GFLOPS
		case "parallel-tiled":
			if e.GFLOPS > bestParallel[e.N] {
				bestParallel[e.N] = e.GFLOPS
			}
		}
	}
	for n, t := range tiled {
		if n < parallelGateMinN {
			continue
		}
		p, ok := bestParallel[n]
		if !ok {
			return invalid(path, "no parallel-tiled entry at n=%d to gate against tiled", n)
		}
		if p < parallelVsTiledFloor*t {
			return invalid(path, "best parallel-tiled at n=%d reaches %.3f GFLOPS, below %.0f%% of tiled's %.3f",
				n, p, 100*parallelVsTiledFloor, t)
		}
	}
	if nv, ok := naive[gateN]; ok {
		p := bestParallel[gateN]
		if p < parallelVsNaiveFloor*nv {
			return invalid(path, "best parallel-tiled at n=%d reaches %.3f GFLOPS, below %.1fx the naive %.3f — the packed kernel regressed",
				gateN, p, parallelVsNaiveFloor, nv)
		}
	}
	return nil
}

// ValidateRuntime is the schema check for a BENCH_runtime payload: right
// schema id, non-empty entries, finite fields, positive throughput, zero
// invariant violations, and the hom / hom-k measured volumes within 1% of
// their closed forms (het within its grid-rounding tolerance).
func ValidateRuntime(f results.RuntimeBenchFile) error {
	const path = RuntimeFileName
	if f.Schema != results.BenchRuntimeSchema {
		return invalid(path, "schema %q, want %q", f.Schema, results.BenchRuntimeSchema)
	}
	if len(f.Entries) == 0 {
		return invalid(path, "no entries")
	}
	if !finite(f.WorkPerSecond) || f.WorkPerSecond <= 0 {
		return invalid(path, "non-positive work rate %v", f.WorkPerSecond)
	}
	for i, e := range f.Entries {
		id := fmt.Sprintf("entry %d (%s/%s n=%d)", i, e.Platform, e.Strategy, e.N)
		if e.Platform == "" || e.Strategy == "" || e.N <= 0 || e.Workers <= 0 || e.Chunks <= 0 {
			return invalid(path, "%s: missing identity fields", id)
		}
		if len(e.Speeds) != e.Workers {
			return invalid(path, "%s: %d speeds for %d workers", id, len(e.Speeds), e.Workers)
		}
		for _, v := range []struct {
			name  string
			value float64
		}{
			{"measuredVolume", e.MeasuredVolume},
			{"predictedVolume", e.PredictedVolume},
			{"relError", e.RelError},
			{"bytesMoved", e.BytesMoved},
			{"makespan", e.Makespan},
			{"cellsPerSec", e.CellsPerSec},
			{"utilization", e.Utilization},
		} {
			if !finite(v.value) {
				return invalid(path, "%s: non-finite %s %v", id, v.name, v.value)
			}
		}
		if e.MeasuredVolume <= 0 || e.PredictedVolume <= 0 {
			return invalid(path, "%s: zero communication volume", id)
		}
		if e.Makespan <= 0 || e.CellsPerSec <= 0 {
			return invalid(path, "%s: zero throughput (makespan %v, cells/s %v)", id, e.Makespan, e.CellsPerSec)
		}
		tol := homTolerance
		if e.Strategy == "het" {
			tol = hetTolerance
		}
		if e.RelError > tol {
			return invalid(path, "%s: measured volume off the closed form by %.4f (> %.2f)", id, e.RelError, tol)
		}
		if e.Violations != 0 {
			return invalid(path, "%s: %d invariant violations", id, e.Violations)
		}
	}
	return nil
}

// ValidateFiles loads and validates all eight artifacts under dir —
// the CI bench-smoke gate.
func ValidateFiles(dir string) error {
	paths := Paths(dir)
	kf, err := results.LoadBenchKernels(paths.Kernels)
	if err != nil {
		return err
	}
	if err := ValidateKernels(kf); err != nil {
		return err
	}
	rf, err := results.LoadBenchRuntime(paths.Runtime)
	if err != nil {
		return err
	}
	if err := ValidateRuntime(rf); err != nil {
		return err
	}
	lf, err := results.LoadBenchLink(paths.Link)
	if err != nil {
		return err
	}
	if err := ValidateLink(lf); err != nil {
		return err
	}
	cf, err := results.LoadBenchChaos(paths.Chaos)
	if err != nil {
		return err
	}
	if err := ValidateChaos(cf); err != nil {
		return err
	}
	sf, err := results.LoadBenchService(paths.Service)
	if err != nil {
		return err
	}
	if err := ValidateService(sf); err != nil {
		return err
	}
	tf, err := results.LoadBenchTopology(paths.Topology)
	if err != nil {
		return err
	}
	if err := ValidateTopology(tf); err != nil {
		return err
	}
	capf, err := results.LoadBenchCapacity(paths.Capacity)
	if err != nil {
		return err
	}
	if err := ValidateCapacity(capf); err != nil {
		return err
	}
	itf, err := results.LoadBenchIterative(paths.Iterative)
	if err != nil {
		return err
	}
	return ValidateIterative(itf)
}
