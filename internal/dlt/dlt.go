// Package dlt implements classical linear Divisible Load Theory on star
// platforms.
//
// A linear divisible load of total size N can be split arbitrarily: worker
// Pᵢ receiving a fraction αᵢ·N pays cᵢ·αᵢ·N to receive it and wᵢ·αᵢ·N to
// process it. The classical results reproduced here (Bharadwaj, Ghose,
// Mani, Robertazzi, "Scheduling Divisible Loads in Parallel and Distributed
// Systems", the paper's reference [9]) are the foundation the paper builds
// on — and whose extension to non-linear costs Section 2 proves futile
// (see package nldlt).
//
// Two communication models are supported:
//
//   - Parallel links (the paper's Section 1.2 model): all transfers may
//     proceed simultaneously. The optimal single-round allocation gives
//     each worker αᵢ ∝ 1/(cᵢ+wᵢ), and everyone finishes at the same time.
//   - One-port: the master emits to one worker at a time, in a chosen
//     order; worker i starts receiving only after workers before it in the
//     order are served. The optimal allocation again equalizes finish
//     times, via the recurrence α_{i+1}(c_{i+1}+w_{i+1}) = αᵢ·wᵢ, and the
//     optimal order serves workers by non-increasing bandwidth.
package dlt

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"nlfl/internal/dessim"
	"nlfl/internal/platform"
)

// Allocation is the result of a DLT allocation: the load fraction given to
// each worker (indexed like the platform), the predicted makespan, and,
// for one-port schedules, the emission order.
type Allocation struct {
	// Fractions[i] is αᵢ, worker i's share of the load; Σ αᵢ = 1.
	Fractions []float64
	// Makespan is the closed-form completion time for load N.
	Makespan float64
	// Order is the master's emission order (worker indices); nil for the
	// parallel-links model where ordering is irrelevant.
	Order []int
}

// Validate checks that fractions are non-negative and sum to 1.
func (a Allocation) Validate() error {
	sum := 0.0
	for i, f := range a.Fractions {
		if f < -1e-12 || math.IsNaN(f) {
			return fmt.Errorf("dlt: fraction %d is %v", i, f)
		}
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("dlt: fractions sum to %v, want 1", sum)
	}
	return nil
}

// OptimalParallel returns the optimal single-round allocation of a linear
// load of size n under the parallel-links model. Worker i's finish time is
// αᵢ·n·(cᵢ + wᵢ); minimizing the maximum over the αᵢ (with Σαᵢ = 1) makes
// all finish times equal, giving αᵢ ∝ 1/(cᵢ+wᵢ) and makespan
// n / Σ 1/(cᵢ+wᵢ).
func OptimalParallel(p *platform.Platform, n float64) (Allocation, error) {
	if n < 0 {
		return Allocation{}, errors.New("dlt: negative load")
	}
	inv := make([]float64, p.P())
	sum := 0.0
	for i := 0; i < p.P(); i++ {
		w := p.Worker(i)
		ci := 1 / w.Bandwidth
		wi := 1 / w.Speed
		inv[i] = 1 / (ci + wi)
		sum += inv[i]
	}
	fr := make([]float64, p.P())
	for i := range fr {
		fr[i] = inv[i] / sum
	}
	return Allocation{Fractions: fr, Makespan: n / sum}, nil
}

// EqualSplit returns the naive allocation αᵢ = 1/p (the allocation the
// paper analyzes for the homogeneous non-linear case in Section 2), with
// the makespan it achieves on a linear load under parallel links.
func EqualSplit(p *platform.Platform, n float64) Allocation {
	fr := make([]float64, p.P())
	ms := 0.0
	for i := range fr {
		fr[i] = 1 / float64(p.P())
		w := p.Worker(i)
		t := w.CommTime(fr[i]*n) + w.LinearCompTime(fr[i]*n)
		if t > ms {
			ms = t
		}
	}
	return Allocation{Fractions: fr, Makespan: ms}
}

// BestOnePortOrder returns the worker emission order that minimizes the
// one-port makespan: by non-increasing bandwidth (non-decreasing cᵢ), the
// classical DLT ordering result. Ties break by worker index.
func BestOnePortOrder(p *platform.Platform) []int {
	order := make([]int, p.P())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return p.Worker(order[a]).Bandwidth > p.Worker(order[b]).Bandwidth
	})
	return order
}

// OptimalOnePort returns the optimal single-round allocation of a linear
// load of size n when the master serves workers sequentially in the given
// order (defaulting to BestOnePortOrder when order is nil). All
// participating workers finish simultaneously; the fractions follow the
// recurrence α_{next}·(c_next + w_next) = α_prev·w_prev.
func OptimalOnePort(p *platform.Platform, n float64, order []int) (Allocation, error) {
	if n < 0 {
		return Allocation{}, errors.New("dlt: negative load")
	}
	if order == nil {
		order = BestOnePortOrder(p)
	}
	if len(order) != p.P() {
		return Allocation{}, fmt.Errorf("dlt: order has %d entries for %d workers", len(order), p.P())
	}
	seen := make([]bool, p.P())
	for _, idx := range order {
		if idx < 0 || idx >= p.P() || seen[idx] {
			return Allocation{}, fmt.Errorf("dlt: order is not a permutation: %v", order)
		}
		seen[idx] = true
	}
	// Express every αᵢ relative to the first worker in the order:
	// rel[0] = 1, rel[k] = rel[k-1]·w_{k-1}/(c_k + w_k); then normalize.
	rel := make([]float64, len(order))
	rel[0] = 1
	for k := 1; k < len(order); k++ {
		prev := p.Worker(order[k-1])
		cur := p.Worker(order[k])
		wPrev := 1 / prev.Speed
		cCur := 1 / cur.Bandwidth
		wCur := 1 / cur.Speed
		rel[k] = rel[k-1] * wPrev / (cCur + wCur)
	}
	total := 0.0
	for _, r := range rel {
		total += r
	}
	fr := make([]float64, p.P())
	for k, idx := range order {
		fr[idx] = rel[k] / total
	}
	first := p.Worker(order[0])
	makespan := fr[order[0]] * n * (1/first.Bandwidth + 1/first.Speed)
	out := Allocation{Fractions: fr, Makespan: makespan, Order: append([]int(nil), order...)}
	return out, nil
}

// Chunks converts an allocation into simulator chunks for a linear load of
// size n (Work = Data). For one-port allocations the chunks follow the
// emission order; otherwise worker order.
func Chunks(a Allocation, n float64) []dessim.Chunk {
	idxs := a.Order
	if idxs == nil {
		idxs = make([]int, len(a.Fractions))
		for i := range idxs {
			idxs[i] = i
		}
	}
	chunks := make([]dessim.Chunk, 0, len(idxs))
	for _, i := range idxs {
		d := a.Fractions[i] * n
		chunks = append(chunks, dessim.Chunk{Worker: i, Data: d, Work: d})
	}
	return chunks
}
