package partition

import "math"

// PeriSum computes the optimal *column-based* PERI-SUM partition of the
// unit square into rectangles of the given (relative) areas, using the
// O(p²) dynamic program over the areas sorted in non-increasing order.
//
// Structure (from Beaumont et al. [41]): the square is cut into C vertical
// columns of full height; column j, of width equal to its total area Aⱼ,
// is stacked with kⱼ rectangles of width Aⱼ and heights aᵢ/Aⱼ. A column
// holding a set S costs Σ_{i∈S}(Aⱼ + aᵢ/Aⱼ) = kⱼ·Aⱼ + 1, so the DP
// minimizes Σⱼ kⱼAⱼ + C over all contiguous groupings of the sorted areas
// (a classical exchange argument shows sorted-contiguous groupings contain
// an optimal column-based solution). On the paper's speed distributions
// the result is observed within Ĉ ≤ 1 + (5/4)·LB ≤ (7/4)·LB, but that is
// not guaranteed: areas spread over twelve decades and more cost up to
// 1.94·LB (TestPeriSumSkewedCounterexamples).
func PeriSum(areas []float64) (*Partition, error) {
	norm, err := Normalize(areas)
	if err != nil {
		return nil, err
	}
	sorted := sortAreasDescending(norm)
	p := len(sorted)
	buf := make([]float64, 2*(p+1))
	prefix, f := buf[:p+1], buf[p+1:]
	for i, s := range sorted {
		prefix[i+1] = prefix[i] + s.area
	}
	choice := make([]int, p+1)
	columnDP(prefix, f, choice)
	breaks := breaksFromChoice(choice, p)
	return buildColumns(norm, sorted, breaks), nil
}

// columnDP fills f[i], the least cost of laying the first i sorted areas
// out in columns, and choice[i], the start of the last of those columns,
// for the prefix sums P of the sorted areas: f[i] = min over j < i of
// f[j] + (i−j)·(Pᵢ−Pⱼ) + 1, ties to the smallest j. It returns the number
// of candidates j it priced.
//
// The scan runs j downwards from i−1 and stops at the first j whose
// column term alone, fl((i−j)·(Pᵢ−Pⱼ)) + 1, exceeds the best cost so far.
// That is exact, not a heuristic: the prefix sums are non-decreasing, so
// the rounded column term never decreases as j falls (each rounded
// operation is monotone), and f[j] ≥ 0, so every smaller j costs at least
// its own column term and none of them reaches the minimum. Keeping ties
// on the smaller j (<=) on the way down gives the upward scan's choice.
func columnDP(prefix, f []float64, choice []int) (priced int) {
	for i := 1; i < len(prefix); i++ {
		f[i] = math.MaxFloat64
		for j := i - 1; j >= 0; j-- {
			// The conversion rounds the product, so no fused multiply-add
			// can make the stop test and the cost see different terms.
			col := float64(float64(i-j) * (prefix[i] - prefix[j]))
			if col+1 > f[i] {
				break
			}
			priced++
			if cost := f[j] + col + 1; cost <= f[i] {
				f[i] = cost
				choice[i] = j
			}
		}
	}
	return priced
}

// SqrtHeuristic is the naive column-based baseline used for ablation: it
// always cuts ⌈√p⌉ columns with (nearly) equal element counts, mirroring
// the homogeneous-optimal layout. On homogeneous areas it matches PeriSum;
// under heterogeneity the DP wins — the measured gap is the value of
// optimizing the column structure.
func SqrtHeuristic(areas []float64) (*Partition, error) {
	norm, err := Normalize(areas)
	if err != nil {
		return nil, err
	}
	sorted := sortAreasDescending(norm)
	p := len(sorted)
	c := int(math.Ceil(math.Sqrt(float64(p))))
	breaks := []int{0}
	for j := 0; j < c; j++ {
		next := breaks[len(breaks)-1] + (p-breaks[len(breaks)-1])/(c-j)
		if next > breaks[len(breaks)-1] {
			breaks = append(breaks, next)
		}
	}
	if breaks[len(breaks)-1] != p {
		breaks = append(breaks, p)
	}
	return buildColumns(norm, sorted, breaks), nil
}

// breaksFromChoice unwinds a DP predecessor chain into ascending group
// boundaries 0 = b₀ < b₁ < … < b_C = p.
func breaksFromChoice(choice []int, p int) []int {
	n := 0
	for i := p; i > 0; i = choice[i] {
		n++
	}
	breaks := make([]int, n+1)
	for i := p; i > 0; i = choice[i] {
		breaks[n] = i
		n--
	}
	return breaks
}

// buildColumns lays the sorted areas out into vertical columns given group
// boundaries, producing the concrete geometry.
func buildColumns(norm []float64, sorted []sortedIndex, breaks []int) *Partition {
	part := &Partition{Areas: norm, Rects: make([]Rect, 0, len(sorted))}
	x := 0.0
	for b := 1; b < len(breaks); b++ {
		lo, hi := breaks[b-1], breaks[b]
		colArea := 0.0
		for k := lo; k < hi; k++ {
			colArea += sorted[k].area
		}
		y := 0.0
		for k := lo; k < hi; k++ {
			h := sorted[k].area / colArea
			// The last rectangle of a column absorbs rounding slack so the
			// stack exactly reaches height 1.
			if k == hi-1 {
				h = 1 - y
			}
			part.Rects = append(part.Rects, Rect{
				X: x, Y: y, W: colArea, H: h, Index: sorted[k].idx,
			})
			y += h
		}
		x += colArea
	}
	// Absorb horizontal rounding slack into the last column.
	if n := len(part.Rects); n > 0 && len(breaks) > 1 {
		lastLo := breaks[len(breaks)-2]
		slack := 1 - x
		if math.Abs(slack) > 0 {
			for k := lastLo; k < len(sorted); k++ {
				r := &part.Rects[len(part.Rects)-(len(sorted)-k)]
				r.W += slack
			}
		}
	}
	return part
}
