package runtime

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// checkTilingPerCell is the reference checkTilingBitmap is held to: one
// bit set and re-read per cell, chunks in order, cells row-major.
func checkTilingPerCell(n int, chunks []Chunk) error {
	seen := make([]bool, n*n)
	for _, c := range chunks {
		for i := c.RowLo; i < c.RowHi; i++ {
			for j := c.ColLo; j < c.ColHi; j++ {
				if seen[i*n+j] {
					return fmt.Errorf("runtime: cell (%d,%d) covered twice (chunk %d overlaps an earlier chunk)", i, j, c.Task)
				}
				seen[i*n+j] = true
			}
		}
	}
	for idx, ok := range seen {
		if !ok {
			return fmt.Errorf("runtime: cell (%d,%d) uncovered (chunks leave a gap)", idx/n, idx%n)
		}
	}
	return nil
}

// randomTiling cuts [r0,r1)×[c0,c1) into rectangles by random guillotine
// splits, down to single cells now and then.
func randomTiling(r *rand.Rand, r0, r1, c0, c1 int, out []Chunk) []Chunk {
	h, w := r1-r0, c1-c0
	if h*w == 1 || r.Intn(4) == 0 {
		return append(out, Chunk{RowLo: r0, RowHi: r1, ColLo: c0, ColHi: c1, Owner: -1})
	}
	if w == 1 || (h > 1 && r.Intn(2) == 0) {
		cut := r0 + 1 + r.Intn(h-1)
		return randomTiling(r, cut, r1, c0, c1, randomTiling(r, r0, cut, c0, c1, out))
	}
	cut := c0 + 1 + r.Intn(w-1)
	return randomTiling(r, r0, r1, cut, c1, randomTiling(r, r0, r1, c0, cut, out))
}

// TestCheckTilingMatchesPerCellReference injects one overlap or one gap
// into random exact tilings, in random chunk order, and requires the
// word-wise check to return the reference's verdict verbatim: the same
// first cell, the same chunk id. Sizes include n² off the 64-bit word
// boundary and rows wider than a word.
func TestCheckTilingMatchesPerCellReference(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	sizes := []int{1, 2, 3, 5, 7, 8, 9, 13, 16, 31, 33, 64, 65, 100, 130, 200}
	overlaps, gaps := 0, 0
	for trial := 0; trial < 1500; trial++ {
		n := sizes[trial%len(sizes)]
		chunks := randomTiling(r, 0, n, 0, n, nil)
		r.Shuffle(len(chunks), func(i, j int) { chunks[i], chunks[j] = chunks[j], chunks[i] })
		for i := range chunks {
			chunks[i].Task = i
		}
		if err := checkTilingBitmap(n, chunks); err != nil {
			t.Fatalf("trial %d n=%d: exact tiling rejected: %v", trial, n, err)
		}

		// One edit: grow a chunk by one line into its neighbours (overlap),
		// shrink it by one (gap), repeat it (overlap) or drop it (gap).
		c := &chunks[r.Intn(len(chunks))]
		switch edit := r.Intn(6); {
		case edit == 0 && c.ColHi < n:
			c.ColHi++
		case edit == 1 && c.RowLo > 0:
			c.RowLo--
		case edit == 2 && c.ColHi-c.ColLo > 1:
			c.ColLo++
		case edit == 3 && c.RowHi-c.RowLo > 1:
			c.RowHi--
		case edit == 4:
			chunks = append(chunks, *c)
		default:
			*c = chunks[len(chunks)-1]
			chunks = chunks[:len(chunks)-1]
		}
		want := checkTilingPerCell(n, chunks)
		got := checkTilingBitmap(n, chunks)
		if want == nil {
			t.Fatalf("trial %d n=%d: the edit left an exact tiling", trial, n)
		}
		if got == nil || got.Error() != want.Error() {
			t.Fatalf("trial %d n=%d:\n got %v\nwant %v", trial, n, got, want)
		}
		if strings.Contains(got.Error(), "covered twice") {
			overlaps++
		} else {
			gaps++
		}
	}
	if overlaps < 300 || gaps < 300 {
		t.Errorf("sweep is lopsided: %d overlaps, %d gaps", overlaps, gaps)
	}
}

// TestCheckTilingIgnoresEmptyRow: a chunk with no columns covers nothing,
// at the origin included (where ColHi-1 would wrap).
func TestCheckTilingIgnoresEmptyRow(t *testing.T) {
	chunks := []Chunk{{RowHi: 3}, {RowHi: 3, ColHi: 3, Task: 1}}
	if err := checkTilingBitmap(3, chunks); err != nil {
		t.Errorf("empty chunk then exact tiling: %v", err)
	}
}

// BenchmarkCheckTiling times both exact checks on the repo benchmark's
// plan: n = 2048 cut into 1024 chunks of 64² (docs/PERFORMANCE.md §2.2
// quotes both figures).
func BenchmarkCheckTiling(b *testing.B) {
	const n = 2048
	chunks, err := GridChunks(n, 32)
	if err != nil {
		b.Fatal(err)
	}
	for name, check := range map[string]func(int, []Chunk) error{
		"bitmap": checkTilingBitmap,
		"bands":  checkTilingBands,
	} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := check(n, chunks); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
