package matmul

import (
	"math"
	"testing"

	"nlfl/internal/stats"
)

// TestMicroKernelMatchesGo is the differential test between the dispatch
// target (AVX2 assembly where the CPU supports it) and the portable Go
// micro-kernel: on random packed panels across k extents — including
// k=1 and k not a multiple of any unroll — both must produce bit-identical
// tiles. On machines without AVX2 the dispatch target IS the Go kernel
// and the test degenerates to a self-check.
func TestMicroKernelMatchesGo(t *testing.T) {
	r := stats.NewRNG(77)
	for _, kc := range []int{1, 2, 3, 7, 16, 129, 1000} {
		pa := make([]float64, kc*microM)
		pb := make([]float64, kc*microN)
		for i := range pa {
			pa[i] = 2*r.Float64() - 1
		}
		for i := range pb {
			pb[i] = 2*r.Float64() - 1
		}
		var got, want [microM * microN]float64
		microKernel(got[:], microN, pa, pb, kc)
		microKernelGo(want[:], microN, pa, pb, kc)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("kc=%d: dispatch kernel differs from Go kernel at %d: %v vs %v",
					kc, i, got[i], want[i])
			}
		}
	}
}

// TestMicroKernelStridedStore checks the ldd parameter: storing a tile
// into a wide destination must touch exactly the microM×microN window.
func TestMicroKernelStridedStore(t *testing.T) {
	const ldd = 19
	kc := 5
	r := stats.NewRNG(5)
	pa := make([]float64, kc*microM)
	pb := make([]float64, kc*microN)
	for i := range pa {
		pa[i] = r.Float64()
	}
	for i := range pb {
		pb[i] = r.Float64()
	}
	dst := make([]float64, microM*ldd)
	for i := range dst {
		dst[i] = math.NaN()
	}
	microKernel(dst, ldd, pa, pb, kc)
	for rr := 0; rr < microM; rr++ {
		for c := 0; c < ldd; c++ {
			v := dst[rr*ldd+c]
			if c < microN {
				want := 0.0
				for kk := 0; kk < kc; kk++ {
					want += pa[kk*microM+rr] * pb[kk*microN+c]
				}
				if v != want {
					t.Fatalf("tile cell (%d,%d) = %v, want %v", rr, c, v, want)
				}
			} else if rr < microM-1 && !math.IsNaN(v) {
				t.Fatalf("cell (%d,%d) outside the tile was written (%v)", rr, c, v)
			}
		}
	}
}

// TestPackedBitIdenticalToNaive is the kernel-equivalence property test
// at its strongest form: because the packed path performs, per output
// element, the same ascending-k multiply-then-add chain as the reference
// (separate VMULPD/VADDPD, no FMA contraction), Tiled and ParallelTiled
// must be BIT-IDENTICAL to Naive — not merely within tolerance — across
// random rectangular shapes including sides of 1, sides below the
// packing width, and sides that are not multiples of microM or microN.
func TestPackedBitIdenticalToNaive(t *testing.T) {
	r := stats.NewRNG(2025)
	dim := func() int { return 1 + int(r.Float64()*260) }
	shapes := [][3]int{
		{1, 1, 1}, {1, 200, 1}, {microM, 3, microN}, {5, 7, 9},
		{63, 65, 67}, {microM * 3, 128, microN * 5}, {130, 96, 130},
	}
	for trial := 0; trial < 20; trial++ {
		shapes = append(shapes, [3]int{dim(), dim(), dim()})
	}
	for i, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a := Random(m, k, int64(i*3+1))
		b := Random(k, n, int64(i*3+2))
		want, err := Naive(a, b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Tiled(a, b)
		if err != nil {
			t.Fatal(err)
		}
		for idx := range want.Data {
			if got.Data[idx] != want.Data[idx] {
				t.Fatalf("shape %dx%d·%dx%d: Tiled differs from Naive at %d: %v vs %v",
					m, k, k, n, idx, got.Data[idx], want.Data[idx])
			}
		}
		workers := 1 + int(r.Float64()*7)
		par, err := ParallelTiled(a, b, workers)
		if err != nil {
			t.Fatal(err)
		}
		for idx := range want.Data {
			if par.Data[idx] != want.Data[idx] {
				t.Fatalf("shape %dx%d·%dx%d (%d workers): ParallelTiled differs from Naive at %d",
					m, k, k, n, workers, idx)
			}
		}
	}
}

// TestPackBRoundTrip pins the packed-B layout: panel jp holds columns
// [jp·microN, …) k-major with zero padding past n.
func TestPackBRoundTrip(t *testing.T) {
	b := Random(6, 11, 3) // 11 columns: one full panel + a 3-wide edge panel
	pb := packB(b)
	if pb.panels != 2 {
		t.Fatalf("11 columns packed into %d panels, want 2", pb.panels)
	}
	for jp := 0; jp < pb.panels; jp++ {
		panel := pb.panel(jp)
		for kk := 0; kk < b.Rows; kk++ {
			for c := 0; c < microN; c++ {
				col := jp*microN + c
				want := 0.0
				if col < b.Cols {
					want = b.At(kk, col)
				}
				if panel[kk*microN+c] != want {
					t.Fatalf("panel %d k=%d lane %d: %v, want %v", jp, kk, c, panel[kk*microN+c], want)
				}
			}
		}
	}
}

// TestPackARowsLayout pins the packed-A layout: panels of microM rows,
// k-major, rows past rowHi zero-padded.
func TestPackARowsLayout(t *testing.T) {
	a := Random(10, 5, 4)
	rowLo, rowHi := 3, 10 // 7 rows → one full panel + a 3-row edge panel
	rows := rowHi - rowLo
	pa := make([]float64, ((rows+microM-1)/microM)*a.Cols*microM)
	packARows(pa, a, rowLo, rowHi)
	for ip := 0; ip < rows; ip += microM {
		panel := pa[(ip/microM)*a.Cols*microM:]
		for r := 0; r < microM; r++ {
			for kk := 0; kk < a.Cols; kk++ {
				want := 0.0
				if ip+r < rows {
					want = a.At(rowLo+ip+r, kk)
				}
				if panel[kk*microM+r] != want {
					t.Fatalf("panel %d row %d k=%d: %v, want %v", ip/microM, r, kk, panel[kk*microM+r], want)
				}
			}
		}
	}
}

// TestRowBandsAlignedAndBalanced is the regression test for the
// ParallelTiled band split: interior boundaries must be microM-aligned
// (no micro-tile straddles two bands, so no two goroutines share output
// cache lines) and band sizes must stay even to within one micro-tile.
func TestRowBandsAlignedAndBalanced(t *testing.T) {
	pinned := []struct {
		rows, workers int
		want          []int
	}{
		{1024, 4, []int{0, 256, 512, 768, 1024}},
		{130, 4, []int{0, 32, 64, 96, 130}},
		{512, 3, []int{0, 168, 340, 512}},
		{20, 3, []int{0, 4, 12, 20}},
		{8, 16, []int{0, 4, 8}}, // workers clamped to rows, empty bands dropped
	}
	for _, tc := range pinned {
		got := rowBands(tc.rows, tc.workers)
		if len(got) != len(tc.want) {
			t.Fatalf("rowBands(%d,%d) = %v, want %v", tc.rows, tc.workers, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("rowBands(%d,%d) = %v, want %v", tc.rows, tc.workers, got, tc.want)
			}
		}
	}
	r := stats.NewRNG(8)
	for trial := 0; trial < 200; trial++ {
		rows := 1 + int(r.Float64()*2000)
		workers := 1 + int(r.Float64()*12)
		cuts := rowBands(rows, workers)
		if cuts[0] != 0 || cuts[len(cuts)-1] != rows {
			t.Fatalf("rows=%d workers=%d: cuts %v do not cover [0,%d)", rows, workers, cuts, rows)
		}
		minB, maxB := rows, 0
		for i := 0; i+1 < len(cuts); i++ {
			if cuts[i+1] <= cuts[i] {
				t.Fatalf("rows=%d workers=%d: non-increasing cuts %v", rows, workers, cuts)
			}
			if i+1 < len(cuts)-1 && cuts[i+1]%microM != 0 {
				t.Fatalf("rows=%d workers=%d: interior cut %d not %d-aligned", rows, workers, cuts[i+1], microM)
			}
			if sz := cuts[i+1] - cuts[i]; true {
				if sz < minB {
					minB = sz
				}
				if sz > maxB {
					maxB = sz
				}
			}
		}
		// Balanced to within the alignment slack: floor rounding plus
		// microM alignment can each shift a boundary by < microM, and the
		// final band absorbs the unaligned remainder.
		if len(cuts) > 2 && maxB-minB > 2*microM+1 {
			t.Fatalf("rows=%d workers=%d: band imbalance %d exceeds 2·microM (cuts %v)",
				rows, workers, maxB-minB, cuts)
		}
	}
}

// TestParallelSmallFallsBackToSerial pins the small-size fallback: below
// parallelMinWork the parallel entry point must not pay goroutine spawn
// overhead. The fallback is observable through rowBands being bypassed —
// we assert the documented threshold arithmetic directly.
func TestParallelSmallFallsBackToSerial(t *testing.T) {
	a, b := Random(128, 128, 1), Random(128, 128, 2)
	if mulWork(a, b) > parallelMinWork {
		t.Fatalf("n=128 must sit inside the serial-fallback region (work %d > threshold %d)",
			mulWork(a, b), parallelMinWork)
	}
	a2, b2 := Random(256, 256, 1), Random(256, 256, 2)
	if mulWork(a2, b2) <= parallelMinWork {
		t.Fatalf("n=256 must be above the serial-fallback threshold")
	}
	// And the fallback must still be exact.
	want, _ := Naive(a, b)
	got, err := ParallelTiled(a, b, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("serial fallback differs from reference at %d", i)
		}
	}
}
