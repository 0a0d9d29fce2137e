package matmul

import (
	"errors"
	"runtime"
	"sync"
)

// smallMulWork is the m·k·n product below which the packed path falls
// back to the naive reference: at that scale the whole problem is
// cache-resident and packing overhead is pure loss. 48³ ≈ the point where
// packing starts paying for itself on the bench machine.
const smallMulWork = 48 * 48 * 48

// parallelMinWork is the m·k·n product below which ParallelTiled runs the
// serial packed kernel instead of spawning band goroutines. The committed
// BENCH_kernels artifacts showed parallel-tiled losing to single-threaded
// at n=128 — goroutine spawn plus band-boundary cache traffic outweigh
// the split until roughly 2·128³ flops — so sizes up to 128 stay serial.
const parallelMinWork = 128 * 128 * 128

// mulWork is the classical operation-count scale m·k·n of A·B.
func mulWork(a, b *Matrix) int { return a.Rows * a.Cols * b.Cols }

// Tiled computes C = A·B with the packed register-blocked kernel: B is
// repacked into microN-column panels, A into microM-row panels, and a
// 4×8 micro-kernel (AVX2 assembly where available, portable Go
// otherwise) accumulates each output tile entirely in registers. Inputs
// below smallMulWork fall back to the naive reference kernel. The result
// is bit-identical to Naive on every path — see microKernel.
func Tiled(a, b *Matrix) (*Matrix, error) {
	if err := checkMul(a, b); err != nil {
		return nil, err
	}
	if mulWork(a, b) < smallMulWork {
		return Naive(a, b)
	}
	c := New(a.Rows, b.Cols)
	packedMulRows(c, a, b, 0, a.Rows, packB(b))
	return c, nil
}

// rowBands splits rows into `workers` contiguous bands with interior
// boundaries aligned down to microM multiples, so no micro-tile straddles
// two bands (which would make two goroutines write the same cache lines
// of C) and band sizes stay even to within one micro-tile. Returned
// boundaries are strictly increasing; empty bands are dropped.
func rowBands(rows, workers int) []int {
	if workers > rows {
		workers = rows
	}
	cuts := make([]int, 0, workers+1)
	cuts = append(cuts, 0)
	for w := 1; w < workers; w++ {
		cut := (w * rows / workers) / microM * microM
		if cut > cuts[len(cuts)-1] {
			cuts = append(cuts, cut)
		}
	}
	if rows > cuts[len(cuts)-1] {
		cuts = append(cuts, rows)
	}
	return cuts
}

// ParallelTiled computes C = A·B splitting microM-aligned row bands
// across `workers` goroutines, each band running the packed
// register-blocked kernel against a shared read-only packed copy of B.
// It falls back to the serial packed kernel when splitting cannot help:
// one worker, a single available CPU (GOMAXPROCS=1 — goroutines would
// only add scheduling overhead), or total work below parallelMinWork.
func ParallelTiled(a, b *Matrix, workers int) (*Matrix, error) {
	if err := checkMul(a, b); err != nil {
		return nil, err
	}
	if workers <= 0 {
		return nil, errors.New("matmul: need at least one worker")
	}
	if mulWork(a, b) < smallMulWork {
		return Naive(a, b)
	}
	serial := workers == 1 ||
		runtime.GOMAXPROCS(0) == 1 ||
		mulWork(a, b) <= parallelMinWork
	cuts := rowBands(a.Rows, workers)
	c := New(a.Rows, b.Cols)
	pb := packB(b)
	if serial || len(cuts) < 3 {
		packedMulRows(c, a, b, 0, a.Rows, pb)
		return c, nil
	}
	var wg sync.WaitGroup
	for i := 0; i+1 < len(cuts); i++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			packedMulRows(c, a, b, lo, hi, pb)
		}(cuts[i], cuts[i+1])
	}
	wg.Wait()
	return c, nil
}

// OuterFill writes the len(a)×len(b) outer product a̅ᵀ×b̅ into dst, row i
// at dst[i*stride : i*stride+len(b)] — the one rank-1 fill loop every
// rectangle writer (OuterInto, VectorOuter, the runtime's and the
// service's chunk engines) calls. A rank-1 fill reuses nothing but b̅,
// which stays cache-resident at every admitted size, so the inner loop
// runs the full width: a column tile only costs passes (see
// docs/PERFORMANCE.md §1). Each cell is one multiply, so the result is
// == a[i]·b[j] in any order. Bounds are the caller's responsibility,
// like a slice expression.
func OuterFill(dst []float64, stride int, a, b []float64) {
	for i, av := range a {
		row := dst[i*stride:][:len(b)]
		for j, bv := range b {
			row[j] = av * bv
		}
	}
}

// OuterInto fills the [rowLo,rowHi)×[colLo,colHi) rectangle of c with the
// outer product a̅ᵀ×b̅. It is the kernel the plan executors
// (internal/core, internal/runtime) run on each worker's assigned
// sub-domain; bounds are the caller's responsibility, like a slice
// expression. The work performed is (rowHi-rowLo)·(colHi-colLo) cell
// updates on (rowHi-rowLo)+(colHi-colLo) input elements — the non-linear
// ratio the paper's communication analysis is about.
func OuterInto(c *Matrix, a, b []float64, rowLo, rowHi, colLo, colHi int) {
	if rowLo >= rowHi || colLo >= colHi {
		return
	}
	OuterFill(c.Data[rowLo*c.Cols+colLo:], c.Cols, a[rowLo:rowHi], b[colLo:colHi])
}
