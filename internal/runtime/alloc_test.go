// Allocation regression guards for the worker pool's hot path: transfer
// buffers are sized once from the plan's largest chunk, span recording is
// reserved up front, and the worker ships and lands its prefetched
// transfers itself — so the steady-state per-chunk loop must not
// allocate. These tests pin
// that property by differencing: two runs that differ only in chunk count
// must cost (nearly) the same number of heap allocations.
package runtime

import (
	"testing"
)

// runAllocs is the average mallocs of one full Run of the plan.
func runAllocs(t *testing.T, plan *StrategyPlan, a, b []float64, opts Options) float64 {
	t.Helper()
	return testing.AllocsPerRun(3, func() {
		if _, err := Run(plan, a, b, opts); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFastPathPerChunkAllocations pins the fault-free pool's per-chunk
// allocation count at (essentially) zero: growing a run from 16 to 256
// chunks — same domain, same workers, prefetch on — must not grow its
// allocation count by more than a small fraction of an allocation per
// extra chunk. The pre-fix hot path allocated at least two objects per
// chunk (a fresh prefetch goroutine plus its result channel) and more via
// unreserved span appends, which this bound rejects by an order of
// magnitude.
func TestFastPathPerChunkAllocations(t *testing.T) {
	const n = 256
	a, b := linkVectors(n)
	opts := Options{
		Speeds:        []float64{1, 1},
		WorkPerSecond: 1e12, // throttle off: measure the loop, not the sleep
		Prefetch:      true,
	}
	small := gridPlan(t, n, 4) // 16 chunks
	big := gridPlan(t, n, 16)  // 256 chunks

	// One throwaway run to warm lazy runtime state.
	if _, err := Run(small, a, b, opts); err != nil {
		t.Fatal(err)
	}
	base := runAllocs(t, small, a, b, opts)
	grown := runAllocs(t, big, a, b, opts)

	extraChunks := float64(len(big.Chunks) - len(small.Chunks))
	perChunk := (grown - base) / extraChunks
	if perChunk > 0.5 {
		t.Errorf("hot path allocates %.2f objects per chunk (16-chunk run: %.0f allocs, 256-chunk run: %.0f), want ≈ 0",
			perChunk, base, grown)
	}
}

// TestChaosPathPerChunkAllocations is the same differencing bound for the
// resilient loop on a fault-free scenario (speculation armed but never
// firing): leases churn through the queue, yet the per-chunk ledger and
// staging-buffer reuse must keep the steady state allocation-free apart
// from the one committed-chunk record each commit appends.
func TestChaosPathPerChunkAllocations(t *testing.T) {
	const n = 256
	a, b := linkVectors(n)
	opts := Options{
		Speeds:        []float64{1, 1},
		WorkPerSecond: 1e12,
		Chaos:         Chaos{SpeculateAfter: 3600}, // resilient path, no faults fire
	}
	small := gridPlan(t, n, 4)
	big := gridPlan(t, n, 16)
	if _, err := Run(small, a, b, opts); err != nil {
		t.Fatal(err)
	}
	base := runAllocs(t, small, a, b, opts)
	grown := runAllocs(t, big, a, b, opts)

	extraChunks := float64(len(big.Chunks) - len(small.Chunks))
	perChunk := (grown - base) / extraChunks
	// The committed-chunk ledger legitimately appends one Chunk per commit
	// (amortized < 1 alloc per chunk); everything else must be free.
	if perChunk > 1.5 {
		t.Errorf("chaos path allocates %.2f objects per chunk (16-chunk run: %.0f allocs, 256-chunk run: %.0f), want ≲ 1",
			perChunk, base, grown)
	}
}
