package bench

import (
	"errors"
	"fmt"
	"math"

	"nlfl/internal/results"
)

// ErrInvalidBench marks a bench artifact that fails its check: a
// judge's or validator's gate, or the regeneration diff.
var ErrInvalidBench = errors.New("bench: invalid artifact")

// invalid builds a gate failure; Artifact.check prefixes the file name.
func invalid(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", ErrInvalidBench, fmt.Sprintf(format, args...))
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
	// parallelVsNaiveFloor: in the full (non-quick) sweep, which must
	// include n=1024, the best parallel-tiled entry there must beat the
	// naive reference by at least this factor — the packed
	// register-blocked kernel's reason to exist.
	parallelVsNaiveFloor = 2.0
	gateN                = 1024
)

// ValidateKernels is the schema check for a BENCH_kernels payload: right
// schema id, a non-empty entry list, finite positive timings and
// throughputs, every entry equivalence-checked against the reference
// kernel — plus the throughput gates: tiled and parallel-tiled measured
// at every n ≥ parallelGateMinN with parallel-tiled within
// parallelVsTiledFloor of tiled there, and (in a full sweep, which must
// measure both at n=1024) parallel-tiled at least parallelVsNaiveFloor
// times the naive throughput at n=1024.
func ValidateKernels(f results.KernelBenchFile) error {
	if f.Schema != results.BenchKernelsSchema {
		return invalid("schema %q, want %q", f.Schema, results.BenchKernelsSchema)
	}
	if len(f.Entries) == 0 {
		return invalid("no entries")
	}
	sizes := map[int]bool{}
	naive := map[int]float64{}        // n → naive GFLOPS
	tiled := map[int]float64{}        // n → tiled GFLOPS
	bestParallel := map[int]float64{} // n → best parallel-tiled GFLOPS
	for i, e := range f.Entries {
		id := fmt.Sprintf("entry %d (%s n=%d)", i, e.Kernel, e.N)
		if e.Kernel == "" || e.N <= 0 {
			return invalid("%s: missing kernel name or size", id)
		}
		if !finite(e.Seconds) || e.Seconds <= 0 {
			return invalid("%s: non-positive or non-finite seconds %v", id, e.Seconds)
		}
		if !finite(e.GFLOPS) || e.GFLOPS <= 0 {
			return invalid("%s: zero or non-finite throughput %v GFLOPS", id, e.GFLOPS)
		}
		if !finite(e.MaxAbsErr) || e.MaxAbsErr > 1e-12 {
			return invalid("%s: kernel deviates from reference by %v", id, e.MaxAbsErr)
		}
		if !e.Checked {
			return invalid("%s: equivalence check did not run", id)
		}
		sizes[e.N] = true
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
	for n := range sizes {
		if n < parallelGateMinN {
			continue
		}
		t, hasTiled := tiled[n]
		p, hasParallel := bestParallel[n]
		if !hasTiled || !hasParallel {
			return invalid("n=%d lacks a tiled or parallel-tiled entry to gate", n)
		}
		if p < parallelVsTiledFloor*t {
			return invalid("best parallel-tiled at n=%d reaches %.3f GFLOPS, below %.0f%% of tiled's %.3f",
				n, p, 100*parallelVsTiledFloor, t)
		}
	}
	nv, hasNaive := naive[gateN]
	p, hasParallel := bestParallel[gateN]
	if !f.Quick && (!hasNaive || !hasParallel) {
		return invalid("full sweep lacks naive or parallel-tiled at n=%d: the %.0fx-naive floor cannot run", gateN, parallelVsNaiveFloor)
	}
	if hasNaive && p < parallelVsNaiveFloor*nv {
		return invalid("best parallel-tiled at n=%d reaches %.3f GFLOPS, below %.1fx the naive %.3f — the packed kernel regressed",
			gateN, p, parallelVsNaiveFloor, nv)
	}
	return nil
}
