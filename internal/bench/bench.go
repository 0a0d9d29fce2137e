// Package bench is the reproducible measured-performance harness: it
// times the dense kernels (internal/matmul) and the worker-pool runtime
// (internal/runtime) across problem sizes, worker counts and distribution
// strategies, cross-checks every measured communication volume against
// the paper's closed forms (Comm_hom = 2N·√(Σsᵢ/s₁) and friends), audits
// every runtime trace with the invariant oracle, and emits one
// machine-readable BENCH_<name>.json record per entry of its Artifacts
// registry, seeding the repository's performance trajectory.
//
// Every sweep that runs the worker pool — runtime, link, chaos, topology,
// capacity and iterative — runs it on the virtual clock, so its artifact
// is a function of the seed, the code and the toolchain, byte for byte.
// Only the kernel and service sweeps time the host, and record their
// timings as environment-stamped observations. See docs/PERFORMANCE.md
// for how to read the output and EXPERIMENTS.md for the regeneration
// recipe.
package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"nlfl/internal/results"
)

// Config selects the measurement envelope.
type Config struct {
	// Seed drives every random input (matrices, vectors). Identical seeds
	// reproduce identical geometry and volumes.
	Seed int64
	// Quick selects the reduced CI configuration of the two wall-clock
	// sweeps: smaller kernel sizes and fewer repetitions, fewer service
	// loads and jobs. The virtual-clock sweeps ignore it.
	Quick bool
	// WorkPerSecond overrides the runtime token-bucket rate scale
	// (cells/second for a speed-1 worker); 0 selects 2e6.
	WorkPerSecond float64
}

// maxProcs reports the measurement environment's parallelism.
func maxProcs() int { return runtime.GOMAXPROCS(0) }

// Artifact is one BENCH_<Name>.json record: the sweep that measures it
// and the validator that gates it. The payload type stays behind the
// generic constructor, so the typed sweeps and validators register as
// they are.
type Artifact struct {
	// Name is the registry key (`nlfl bench -only <Name>`) and the stem
	// of the file name.
	Name string
	// Gates states what a file that passes the validator proves.
	Gates string

	run      func(context.Context, Config) (any, error)
	validate func(any) error
	load     func(path string) (any, error)
}

func artifact[T any](name, gates string, run func(context.Context, Config) (T, error), validate func(T) error) Artifact {
	return Artifact{
		Name:     name,
		Gates:    gates,
		run:      func(ctx context.Context, cfg Config) (any, error) { return run(ctx, cfg) },
		validate: func(v any) error { return validate(v.(T)) },
		load:     func(path string) (any, error) { return results.LoadJSON[T](path) },
	}
}

// Artifacts is the registry, in emission order.
var Artifacts = []Artifact{
	artifact("kernels", "every kernel equal to naive, throughput floors hold", RunKernels, ValidateKernels),
	artifact("runtime", "volumes within 1% of the closed forms, zero violations", RunRuntime, ValidateRuntime),
	artifact("link", "het beats hom on the constrained link, zero violations", RunLinkSweep, ValidateLink),
	artifact("chaos", "ledger exact, recovery counters nonzero, zero violations", RunChaosSweep, ValidateChaos),
	artifact("service", "policy gate holds, chaos isolation exact, zero violations", RunServiceSweep, ValidateService),
	artifact("topology", "crossover shift holds (star yes, chain no), edge ledgers exact, zero violations", RunTopologySweep, ValidateTopology),
	artifact("capacity", "predictions within tolerance on both runtimes, knee interior", RunCapacitySweep, ValidateCapacity),
	artifact("iterative", "residuals deterministic across policies, adaptive beats static and tracks the oracle, zero violations", RunIterativeSweep, ValidateIterative),
}

// File is the artifact's file name.
func (a Artifact) File() string { return "BENCH_" + a.Name + ".json" }

// check runs the validator, naming the file in the error.
func (a Artifact) check(v any) error {
	if err := a.validate(v); err != nil {
		return fmt.Errorf("%s: %w", a.File(), err)
	}
	return nil
}

// Names lists the registered artifact names, comma-separated in order.
func Names() string {
	names := make([]string, len(Artifacts))
	for i, a := range Artifacts {
		names[i] = a.Name
	}
	return strings.Join(names, ", ")
}

// Lookup returns the registered artifact called name.
func Lookup(name string) (Artifact, error) {
	for _, a := range Artifacts {
		if a.Name == name {
			return a, nil
		}
	}
	return Artifact{}, fmt.Errorf("bench: unknown artifact %q (one of %s)", name, Names())
}

// Run creates dir, executes the given artifacts' sweeps in order and
// validates every payload; only when all of them pass does it write them
// into dir. It returns the payloads in the order given. A failed sweep, a
// failed gate or a cancelled ctx (sweeps stop at their next boundary)
// writes nothing; a dir that cannot be created fails before any sweep.
func Run(ctx context.Context, cfg Config, dir string, arts ...Artifact) ([]any, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	files := make([]any, len(arts))
	for i, a := range arts {
		f, err := a.run(ctx, cfg)
		if err != nil {
			return nil, err
		}
		if err := a.check(f); err != nil {
			return nil, err
		}
		files[i] = f
	}
	for i, a := range arts {
		if err := results.SaveJSON(filepath.Join(dir, a.File()), files[i]); err != nil {
			return nil, err
		}
	}
	return files, nil
}

// ValidateFiles loads the given artifacts from dir and validates each —
// `nlfl bench -validate`, the one judge CI runs.
func ValidateFiles(dir string, arts ...Artifact) error {
	for _, a := range arts {
		f, err := a.load(filepath.Join(dir, a.File()))
		if err != nil {
			return err
		}
		if err := a.check(f); err != nil {
			return err
		}
	}
	return nil
}
