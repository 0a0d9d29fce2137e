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
// an optimal column-based solution). The result satisfies the published
// guarantee Ĉ ≤ 1 + (5/4)·LB ≤ (7/4)·LB.
func PeriSum(areas []float64) (*Partition, error) {
	norm, err := Normalize(areas)
	if err != nil {
		return nil, err
	}
	sorted := sortAreasDescending(norm)
	p := len(sorted)
	prefix := make([]float64, p+1)
	for i, s := range sorted {
		prefix[i+1] = prefix[i] + s.area
	}
	const inf = math.MaxFloat64
	f := make([]float64, p+1)
	choice := make([]int, p+1)
	for i := 1; i <= p; i++ {
		f[i] = inf
		for j := 0; j < i; j++ {
			colArea := prefix[i] - prefix[j]
			cost := f[j] + float64(i-j)*colArea + 1
			if cost < f[i] {
				f[i] = cost
				choice[i] = j
			}
		}
	}
	breaks := breaksFromChoice(choice, p)
	return buildColumns(norm, sorted, breaks), nil
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
	var rev []int
	for i := p; i > 0; i = choice[i] {
		rev = append(rev, i)
	}
	breaks := make([]int, 0, len(rev)+1)
	breaks = append(breaks, 0)
	for k := len(rev) - 1; k >= 0; k-- {
		breaks = append(breaks, rev[k])
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
