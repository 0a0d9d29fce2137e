package results

import (
	"encoding/json"
	"fmt"
	"os"
)

// Bench schema identifiers, bumped on breaking field changes so consumers
// (CI's bench-smoke job, the performance trajectory) can reject files they
// do not understand.
const (
	BenchKernelsSchema = "nlfl/bench-kernels/v1"
	BenchRuntimeSchema = "nlfl/bench-runtime/v1"
	BenchLinkSchema    = "nlfl/bench-link/v1"
)

// KernelBenchEntry is one measured kernel configuration.
type KernelBenchEntry struct {
	// Kernel names the code path ("naive", "blocked", "tiled",
	// "parallel-tiled", "vector-outer", "outer-into").
	Kernel string `json:"kernel"`
	// N is the matrix/vector side.
	N int `json:"n"`
	// Tile is the kernel's tile-side argument (0 when it takes none: only
	// blocked does).
	Tile int `json:"tile,omitempty"`
	// Workers is the goroutine count (0 for single-threaded kernels).
	Workers int `json:"workers,omitempty"`
	// Seconds is the best-of-reps wall time of one full kernel run.
	Seconds float64 `json:"seconds"`
	// GFLOPS is the implied rate: 2N³ flops for matmul kernels, N² for
	// outer-product kernels, divided by Seconds.
	GFLOPS float64 `json:"gflops"`
	// MaxAbsErr is the largest element-wise deviation from the naive
	// reference on the same inputs (0 for the reference itself).
	MaxAbsErr float64 `json:"maxAbsErr"`
	// Checked records that the equivalence check ran and passed.
	Checked bool `json:"checked"`
}

// KernelBenchFile is the BENCH_kernels.json payload.
type KernelBenchFile struct {
	Schema string `json:"schema"`
	// Seed is the RNG seed the inputs were generated from.
	Seed int64 `json:"seed"`
	// Quick marks the reduced CI configuration.
	Quick bool `json:"quick"`
	// GoVersion and GOMAXPROCS pin the measurement environment.
	GoVersion  string             `json:"goVersion"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Entries    []KernelBenchEntry `json:"entries"`
}

// RuntimeBenchEntry is one measured strategy execution.
type RuntimeBenchEntry struct {
	// Platform names the speed profile, Speeds lists it.
	Platform string    `json:"platform"`
	Speeds   []float64 `json:"speeds"`
	// Strategy is "hom", "hom/k" or "het"; Grid and K echo the plan.
	Strategy string `json:"strategy"`
	Grid     int    `json:"grid,omitempty"`
	K        int    `json:"k,omitempty"`
	// N is the vector length, Workers the pool size, Chunks the number of
	// scheduled rectangles.
	N       int `json:"n"`
	Workers int `json:"workers"`
	Chunks  int `json:"chunks"`
	// MeasuredVolume is the vector elements actually shipped to workers;
	// PredictedVolume the strategy's closed form (2N·√(Σsᵢ/s₁) for hom);
	// RelError their relative disagreement.
	MeasuredVolume  float64 `json:"measuredVolume"`
	PredictedVolume float64 `json:"predictedVolume"`
	RelError        float64 `json:"relError"`
	// BytesMoved is MeasuredVolume in bytes (8 per float64 element).
	BytesMoved float64 `json:"bytesMoved"`
	// Makespan is the measured wall-clock seconds; CellsPerSec the
	// realized N²/Makespan throughput. Both vary run to run — see the
	// determinism caveats in EXPERIMENTS.md.
	Makespan    float64 `json:"makespan"`
	CellsPerSec float64 `json:"cellsPerSec"`
	// Utilization and Imbalance summarize the run's trace. Imbalance is
	// -1 when undefined (a worker recorded no compute time).
	Utilization float64 `json:"utilization"`
	Imbalance   float64 `json:"imbalance"`
	// Violations counts invariant-oracle findings; 0 in any valid file.
	Violations int `json:"violations"`
}

// RuntimeBenchFile is the BENCH_runtime.json payload.
type RuntimeBenchFile struct {
	Schema string `json:"schema"`
	Seed   int64  `json:"seed"`
	Quick  bool   `json:"quick"`
	// WorkPerSecond is the token-bucket rate scale of every run.
	WorkPerSecond float64             `json:"workPerSecond"`
	GoVersion     string              `json:"goVersion"`
	GOMAXPROCS    int                 `json:"gomaxprocs"`
	Entries       []RuntimeBenchEntry `json:"entries"`
}

// LinkBenchEntry is one strategy execution under a bandwidth-modeled
// master link — the measured volume-vs-makespan trade-off of Figure 2.
type LinkBenchEntry struct {
	// Platform names the speed profile, Speeds lists it.
	Platform string    `json:"platform"`
	Speeds   []float64 `json:"speeds"`
	// Strategy is "hom", "hom/k" or "het"; N the vector length.
	Strategy string `json:"strategy"`
	N        int    `json:"n"`
	// Bandwidth is the master link's aggregate rate in elements/second.
	Bandwidth float64 `json:"bandwidth"`
	// MeasuredVolume is the elements shipped, PredictedVolume the
	// strategy's closed form over the executed plan.
	MeasuredVolume  float64 `json:"measuredVolume"`
	PredictedVolume float64 `json:"predictedVolume"`
	// Makespan is the measured wall-clock seconds; CommTime the summed
	// modeled transfer seconds across workers.
	Makespan float64 `json:"makespan"`
	CommTime float64 `json:"commTime"`
	// OverlapFraction is the share of comm time hidden under compute by
	// double-buffered prefetch.
	OverlapFraction float64 `json:"overlapFraction"`
	// LinkUtilization is each worker's comm-busy fraction of the run.
	LinkUtilization []float64 `json:"linkUtilization"`
	// Violations counts invariant-oracle findings, the link-capacity
	// invariant included; 0 in any valid file.
	Violations int `json:"violations"`
}

// LinkBenchFile is the BENCH_link.json payload: the bandwidth sweep
// showing lower communication volume becoming lower makespan once the
// master link is the bottleneck.
type LinkBenchFile struct {
	Schema string `json:"schema"`
	Seed   int64  `json:"seed"`
	Quick  bool   `json:"quick"`
	// WorkPerSecond is the token-bucket rate scale of every run.
	WorkPerSecond float64          `json:"workPerSecond"`
	GoVersion     string           `json:"goVersion"`
	GOMAXPROCS    int              `json:"gomaxprocs"`
	Entries       []LinkBenchEntry `json:"entries"`
}

// SaveBenchLink writes the link sweep file as indented JSON.
func SaveBenchLink(path string, f LinkBenchFile) error {
	return saveJSON(path, f)
}

// LoadBenchLink reads a link sweep file.
func LoadBenchLink(path string) (LinkBenchFile, error) {
	var f LinkBenchFile
	err := loadJSON(path, &f)
	return f, err
}

// SaveBenchKernels writes the kernels bench file as indented JSON.
func SaveBenchKernels(path string, f KernelBenchFile) error {
	return saveJSON(path, f)
}

// LoadBenchKernels reads a kernels bench file.
func LoadBenchKernels(path string) (KernelBenchFile, error) {
	var f KernelBenchFile
	err := loadJSON(path, &f)
	return f, err
}

// SaveBenchRuntime writes the runtime bench file as indented JSON.
func SaveBenchRuntime(path string, f RuntimeBenchFile) error {
	return saveJSON(path, f)
}

// LoadBenchRuntime reads a runtime bench file.
func LoadBenchRuntime(path string) (RuntimeBenchFile, error) {
	var f RuntimeBenchFile
	err := loadJSON(path, &f)
	return f, err
}

func saveJSON(path string, v interface{}) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("results: marshal: %w", err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func loadJSON(path string, v interface{}) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("results: read: %w", err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("results: parse %s: %w", path, err)
	}
	return nil
}
