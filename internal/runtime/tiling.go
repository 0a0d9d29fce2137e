package runtime

import (
	"fmt"
	"math/bits"
	"sort"
)

// tilingBitmapMaxCells bounds the coverage bitmap to 8 MiB (1 bit per
// cell); larger domains fall back to the row-band interval sweep.
const tilingBitmapMaxCells = 1 << 26

// checkTiling verifies that the chunks tile the n×n domain exactly —
// every cell covered once, no overlaps, no gaps. A plain Σcells == n²
// check is satisfiable by overlapping chunks plus a gap of the same
// area; this is the exact check behind Run's plan validation. Bounds are
// assumed already validated (0 ≤ lo ≤ hi ≤ n, positive area).
func checkTiling(n int, chunks []Chunk) error {
	if n*n <= tilingBitmapMaxCells {
		return checkTilingBitmap(n, chunks)
	}
	return checkTilingBands(n, chunks)
}

// checkTilingBitmap marks every covered cell in a bitset and reports the
// first double-covered or uncovered cell. It works a 64-bit word at a
// time — each chunk row [ColLo,ColHi) is a run of word masks, and the
// final scan compares words against all-ones — so the cost is n²/64 word
// operations, not n² bit operations, while the cell and chunk it names
// are the ones a cell-by-cell walk in the same order would find first.
func checkTilingBitmap(n int, chunks []Chunk) error {
	cells := n * n
	cover := make([]uint64, (cells+63)/64)
	if rem := cells % 64; rem != 0 {
		// The last word's bits past n² belong to no cell: count them covered.
		cover[len(cover)-1] = ^uint64(0) << rem
	}
	for _, c := range chunks {
		if c.ColHi <= c.ColLo {
			continue // no cells; also keeps last below from wrapping
		}
		for i := c.RowLo; i < c.RowHi; i++ {
			lo, last := uint(i*n+c.ColLo), uint(i*n+c.ColHi-1)
			for w := lo / 64; w <= last/64; w++ {
				mask := ^uint64(0)
				if w == lo/64 {
					mask <<= lo % 64
				}
				if w == last/64 {
					mask &= ^uint64(0) >> (63 - last%64)
				}
				if twice := cover[w] & mask; twice != 0 {
					idx := int(w)*64 + bits.TrailingZeros64(twice)
					return fmt.Errorf("runtime: cell (%d,%d) covered twice (chunk %d overlaps an earlier chunk)", idx/n, idx%n, c.Task)
				}
				cover[w] |= mask
			}
		}
	}
	for w, word := range cover {
		if word != ^uint64(0) {
			idx := w*64 + bits.TrailingZeros64(^word)
			return fmt.Errorf("runtime: cell (%d,%d) uncovered (chunks leave a gap)", idx/n, idx%n)
		}
	}
	return nil
}

// checkTilingBands cuts the domain into horizontal bands at every chunk
// row boundary; within a band each spanning chunk contributes a column
// interval, and the intervals must cover [0,n) exactly once. Rectangles
// either span a band fully or miss it entirely, so this is exact.
func checkTilingBands(n int, chunks []Chunk) error {
	bounds := make([]int, 0, 2*len(chunks)+2)
	bounds = append(bounds, 0, n)
	for _, c := range chunks {
		bounds = append(bounds, c.RowLo, c.RowHi)
	}
	sort.Ints(bounds)
	bounds = dedupInts(bounds)

	type iv struct{ lo, hi, task int }
	for bi := 0; bi+1 < len(bounds); bi++ {
		r0, r1 := bounds[bi], bounds[bi+1]
		var ivs []iv
		for _, c := range chunks {
			if c.RowLo <= r0 && c.RowHi >= r1 {
				ivs = append(ivs, iv{c.ColLo, c.ColHi, c.Task})
			}
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		at := 0
		for _, v := range ivs {
			if v.lo > at {
				return fmt.Errorf("runtime: rows [%d,%d) leave columns [%d,%d) uncovered", r0, r1, at, v.lo)
			}
			if v.lo < at {
				return fmt.Errorf("runtime: chunk %d overlaps columns [%d,%d) in rows [%d,%d)", v.task, v.lo, at, r0, r1)
			}
			at = v.hi
		}
		if at != n {
			return fmt.Errorf("runtime: rows [%d,%d) leave columns [%d,%d) uncovered", r0, r1, at, n)
		}
	}
	return nil
}

// dedupInts removes adjacent duplicates from a sorted slice, in place.
func dedupInts(xs []int) []int {
	out := xs[:1]
	for _, x := range xs[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}
