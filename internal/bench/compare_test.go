package bench

import (
	"errors"
	"strings"
	"testing"

	"nlfl/internal/results"
)

// kernelEntry builds a checked, reference-equal entry for gate tests.
func kernelEntry(kernel string, n, workers int, gflops float64) results.KernelBenchEntry {
	flops := 2 * float64(n) * float64(n) * float64(n)
	return results.KernelBenchEntry{
		Kernel: kernel, N: n, Workers: workers,
		Seconds: flops / (gflops * 1e9), GFLOPS: gflops, Checked: true,
	}
}

func kernelFile(entries ...results.KernelBenchEntry) results.KernelBenchFile {
	return results.KernelBenchFile{Schema: results.BenchKernelsSchema, Entries: entries}
}

// TestValidateKernelsThroughputGates pins the two performance floors: the
// best parallel-tiled entry must stay within 95% of tiled at every
// n ≥ 256, and — when the sweep includes n=1024 — beat naive there by 2×.
func TestValidateKernelsThroughputGates(t *testing.T) {
	good := kernelFile(
		kernelEntry("naive", 256, 0, 3.0),
		kernelEntry("tiled", 256, 0, 18.0),
		kernelEntry("parallel-tiled", 256, 2, 18.0),
		kernelEntry("naive", 1024, 0, 2.5),
		kernelEntry("tiled", 1024, 0, 20.0),
		kernelEntry("parallel-tiled", 1024, 4, 20.0),
	)
	if err := ValidateKernels(good); err != nil {
		t.Fatalf("healthy file rejected: %v", err)
	}

	slowParallel := kernelFile(
		kernelEntry("naive", 256, 0, 3.0),
		kernelEntry("tiled", 256, 0, 18.0),
		kernelEntry("parallel-tiled", 256, 2, 12.0), // 67% of tiled: the old inversion
	)
	if err := ValidateKernels(slowParallel); !errors.Is(err, ErrInvalidBench) {
		t.Errorf("parallel-tiled losing to tiled at n=256 accepted: %v", err)
	}

	slowKernel := kernelFile(
		kernelEntry("naive", 1024, 0, 2.5),
		kernelEntry("tiled", 1024, 0, 4.0),
		kernelEntry("parallel-tiled", 1024, 4, 4.0), // only 1.6x naive
	)
	if err := ValidateKernels(slowKernel); !errors.Is(err, ErrInvalidBench) {
		t.Errorf("parallel-tiled below 2x naive at n=1024 accepted: %v", err)
	}

	missingParallel := kernelFile(
		kernelEntry("naive", 256, 0, 3.0),
		kernelEntry("tiled", 256, 0, 18.0),
	)
	if err := ValidateKernels(missingParallel); !errors.Is(err, ErrInvalidBench) {
		t.Errorf("missing parallel-tiled at a gated size accepted: %v", err)
	}

	// A quick sweep (no sizes ≥ 256) carries nothing to gate.
	quick := kernelFile(
		kernelEntry("naive", 128, 0, 3.0),
		kernelEntry("tiled", 128, 0, 18.0),
		kernelEntry("parallel-tiled", 128, 2, 10.0),
	)
	if err := ValidateKernels(quick); err != nil {
		t.Errorf("quick-style file without gated sizes rejected: %v", err)
	}
}

// TestCompareKernels pins the matching and the speedup arithmetic of the
// before/after table, including one-sided (added/removed) rows.
func TestCompareKernels(t *testing.T) {
	before := kernelFile(
		kernelEntry("naive", 256, 0, 2.0),
		kernelEntry("tiled", 256, 0, 3.0),
		kernelEntry("old-kernel", 256, 0, 1.0),
	)
	after := kernelFile(
		kernelEntry("naive", 256, 0, 2.0),
		kernelEntry("tiled", 256, 0, 18.0),
		kernelEntry("new-kernel", 256, 0, 9.0),
	)
	deltas := CompareKernels(before, after)
	if len(deltas) != 4 {
		t.Fatalf("got %d rows, want 4 (union of configurations)", len(deltas))
	}
	byName := map[string]KernelDelta{}
	for _, d := range deltas {
		byName[d.Kernel] = d
	}
	if d := byName["tiled"]; d.Speedup < 5.9 || d.Speedup > 6.1 {
		t.Errorf("tiled speedup %v, want 6.0 (3 → 18 GFLOPS)", d.Speedup)
	}
	if d := byName["naive"]; d.Speedup < 0.99 || d.Speedup > 1.01 {
		t.Errorf("naive speedup %v, want 1.0", d.Speedup)
	}
	if d := byName["old-kernel"]; d.NewSeconds != 0 || d.Speedup != 0 {
		t.Errorf("removed configuration not zero-sided: %+v", d)
	}
	if d := byName["new-kernel"]; d.OldSeconds != 0 || d.Speedup != 0 {
		t.Errorf("added configuration not zero-sided: %+v", d)
	}

	table := FormatKernelDeltas(deltas)
	for _, want := range []string{"added", "removed", "6.00x"} {
		if !strings.Contains(table, want) {
			t.Errorf("rendered table missing %q:\n%s", want, table)
		}
	}
}
