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
// is a function of the seed and the code, byte for byte bar the goVersion
// line. Each of its claims is checked once, by the sweep's trace audit
// or by the artifact's judge, on the payload in memory before Run writes
// anything; a file on disk is checked by regenerating it at the seed it
// records and comparing the bytes.
// Only the kernel and service sweeps time the host: they record their
// timings as environment-stamped observations, and a file on disk is
// loaded and re-judged by its validator. See docs/PERFORMANCE.md for how
// to read the output and EXPERIMENTS.md for the regeneration recipe.
package bench

import (
	"bytes"
	"context"
	"encoding/json"
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
}

// workPerSecond is the token-bucket rate scale (cells/second for a
// speed-1 worker) of the runtime and link sweeps.
const workPerSecond = 2e6

// maxProcs reports the measurement environment's parallelism.
func maxProcs() int { return runtime.GOMAXPROCS(0) }

// Artifact is one BENCH_<Name>.json record: the sweep that measures it
// and how its claims are checked. The payload type stays behind the
// generic constructors, so the typed sweeps, judges and validators
// register as they are.
type Artifact struct {
	// Name is the registry key (`nlfl bench -only <Name>`) and the stem
	// of the file name.
	Name string
	// Gates states what a file that passes the check proves.
	Gates string

	run func(context.Context, Config) (any, error)
	// judge checks a payload: a virtual-clock artifact's judge or a
	// wall-clock artifact's validator.
	judge func(any) error
	// load reads a wall-clock artifact's file for its validator; nil for
	// a virtual-clock artifact, whose file is checked by regeneration.
	load func(path string) (any, error)
}

// virtual registers a virtual-clock artifact: judge checks the fresh
// payload, and a file on disk must equal a regeneration.
func virtual[T any](name, gates string, run func(context.Context, Config) (T, error), judge func(T) error) Artifact {
	return Artifact{
		Name:  name,
		Gates: gates,
		run:   func(ctx context.Context, cfg Config) (any, error) { return run(ctx, cfg) },
		judge: func(v any) error { return judge(v.(T)) },
	}
}

// measured registers a wall-clock artifact: validate checks the fresh
// payload and, loaded again, the file on disk.
func measured[T any](name, gates string, run func(context.Context, Config) (T, error), validate func(T) error) Artifact {
	a := virtual(name, gates, run, validate)
	a.load = func(path string) (any, error) { return results.LoadJSON[T](path) }
	return a
}

// Artifacts is the registry, in emission order.
var Artifacts = []Artifact{
	measured("kernels", "every kernel equal to naive, throughput floors hold", RunKernels, ValidateKernels),
	virtual("runtime", "volumes within 1% of the closed forms, every trace clean", RunRuntime, judgeRuntime),
	virtual("link", "het beats hom on the constrained link, every trace clean", RunLinkSweep, judgeLink),
	virtual("chaos", "ledger exact, recovery counters nonzero, waste at most half, every trace clean", RunChaosSweep, judgeChaos),
	measured("service", "policy gate holds, chaos isolation exact, zero violations", RunServiceSweep, ValidateService),
	virtual("topology", "crossover shift holds (star yes, chain no), edge ledgers exact, every trace clean", RunTopologySweep, judgeTopology),
	virtual("capacity", "predictions within 5% on both runtimes, knee interior", RunCapacitySweep, judgeCapacity),
	virtual("iterative", "residuals deterministic across policies, adaptive beats static and tracks the oracle, zero violations", RunIterativeSweep, judgeIterative),
}

// File is the artifact's file name.
func (a Artifact) File() string { return "BENCH_" + a.Name + ".json" }

// check runs the judge, naming the file in the error.
func (a Artifact) check(v any) error {
	if err := a.judge(v); err != nil {
		return fmt.Errorf("%s: %w", a.File(), err)
	}
	return nil
}

// sweep runs the artifact's sweep and checks the payload.
func (a Artifact) sweep(ctx context.Context, cfg Config) (any, error) {
	f, err := a.run(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return f, a.check(f)
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
// checks every payload; only when all of them pass does it write them
// into dir. It returns the payloads in the order given. A failed sweep, a
// failed gate or a cancelled ctx (sweeps stop at their next boundary)
// writes nothing; a dir that cannot be created fails before any sweep.
func Run(ctx context.Context, cfg Config, dir string, arts ...Artifact) ([]any, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	files := make([]any, len(arts))
	for i, a := range arts {
		f, err := a.sweep(ctx, cfg)
		if err != nil {
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

// ValidateFiles checks the given artifacts' files in dir — `nlfl bench
// -validate`, the one judge CI runs — and returns, per artifact, how its
// file was checked. A wall-clock artifact is loaded and re-judged by its
// validator. A virtual-clock artifact is regenerated at the seed its file
// records, its sweep and judge checking the fresh payload, and the file
// must equal the regeneration byte for byte, bar the goVersion line,
// which names the toolchain that wrote it.
func ValidateFiles(ctx context.Context, dir string, arts ...Artifact) ([]string, error) {
	how := make([]string, len(arts))
	for i, a := range arts {
		path := filepath.Join(dir, a.File())
		if a.load != nil {
			f, err := a.load(path)
			if err != nil {
				return nil, err
			}
			if err := a.check(f); err != nil {
				return nil, err
			}
			how[i] = "schema ok"
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("bench: %w", err)
		}
		var stamp struct {
			Seed int64 `json:"seed"`
		}
		if err := json.Unmarshal(got, &stamp); err != nil {
			return nil, fmt.Errorf("%s: %w: %v", a.File(), ErrInvalidBench, err)
		}
		f, err := a.sweep(ctx, Config{Seed: stamp.Seed})
		if err != nil {
			return nil, err
		}
		want, err := results.MarshalJSON(f)
		if err != nil {
			return nil, err
		}
		if line, g, w := firstDiff(got, want); line > 0 {
			return nil, fmt.Errorf("%s: %w: line %d is %s where the seed-%d regeneration has %s",
				a.File(), ErrInvalidBench, line, strings.TrimSpace(g), stamp.Seed, strings.TrimSpace(w))
		}
		how[i] = fmt.Sprintf("identical to the seed-%d regeneration", stamp.Seed)
	}
	return how, nil
}

// firstDiff returns the first line (1-based) at which got and want
// differ, with its two texts, or 0 when they agree. The goVersion lines
// compare equal.
func firstDiff(got, want []byte) (line int, g, w string) {
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < max(len(gl), len(wl)); i++ {
		g, w = lineAt(gl, i), lineAt(wl, i)
		if g != w && !(strings.Contains(g, `"goVersion"`) && strings.Contains(w, `"goVersion"`)) {
			return i + 1, g, w
		}
	}
	return 0, "", ""
}

// lineAt is lines[i], or "" past the end.
func lineAt(lines [][]byte, i int) string {
	if i < len(lines) {
		return string(lines[i])
	}
	return ""
}
