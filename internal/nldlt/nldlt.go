// Package nldlt implements non-linear (α-power) divisible-load scheduling
// and the paper's Section 2 "no free lunch" analysis.
//
// A non-linear divisible workload performs W = N^α (α > 1) units of work
// on N data elements. The literature the paper refutes ([31–35]: Hung &
// Robertazzi; Suresh et al.) transplants classical DLT to this cost model:
// hand worker Pᵢ a chunk of Xᵢ data elements, pay cᵢ·Xᵢ to ship it and
// wᵢ·Xᵢ^α to process it, and choose the Xᵢ (summing to N) to minimize the
// makespan. This package solves that optimization exactly (numerically)
// for both the paper's parallel-links model and the classical sequential
// one-port model — and exposes the quantity that makes it moot: the work
// actually accomplished, ΣXᵢ^α, is a vanishing fraction of N^α as soon as
// the platform grows. The chunks are independent, so any dependency-free
// decomposition simply does not add up to the full computation:
//
//	W_partial / W = 1/P^(α-1)  (homogeneous equal split)
//
// which tends to 0 as P → ∞ — Section 2's central equation.
package nldlt

import (
	"fmt"
	"math"

	"nlfl/internal/dessim"
	"nlfl/internal/platform"
	"nlfl/internal/solve"
)

// Load describes an α-power divisible workload: N data elements, N^α total
// work, and per-chunk cost w·X^α on a worker of unit speed.
type Load struct {
	N     float64
	Alpha float64
}

// Validate rejects non-positive sizes and α < 1.
func (l Load) Validate() error {
	if l.N <= 0 || math.IsNaN(l.N) || math.IsInf(l.N, 0) {
		return fmt.Errorf("nldlt: invalid load size %v", l.N)
	}
	if l.Alpha < 1 || math.IsNaN(l.Alpha) || math.IsInf(l.Alpha, 0) {
		return fmt.Errorf("nldlt: invalid exponent %v (need α ≥ 1)", l.Alpha)
	}
	return nil
}

// TotalWork returns W = N^α.
func (l Load) TotalWork() float64 { return math.Pow(l.N, l.Alpha) }

// ChunkWork returns the work content of a chunk of x data elements: x^α.
func (l Load) ChunkWork(x float64) float64 { return math.Pow(x, l.Alpha) }

// UnprocessedFraction returns the paper's closed form for the fraction of
// the total work left undone after an equal-split DLT phase on P
// homogeneous workers: (W - W_partial)/W = 1 - 1/P^(α-1).
func UnprocessedFraction(p int, alpha float64) float64 {
	return 1 - math.Pow(float64(p), 1-alpha)
}

// MultiInstallmentWorkFraction returns W_partial/W when the input is
// dealt in m equal installments of equal chunks: m·P chunks of N/(m·P)
// elements accomplish m·P·(N/(mP))^α = N^α·(mP)^(1-α) work, i.e. fraction
// (mP)^(1-α). A corollary that *sharpens* the negative result: classical
// DLT reaches for multi-installment schedules to hide latency, but for
// α > 1 every extra installment shrinks the accomplished work further —
// chunking is the problem, not the schedule.
func MultiInstallmentWorkFraction(p, m int, alpha float64) float64 {
	return math.Pow(float64(p*m), 1-alpha)
}

// Result is a solved non-linear allocation.
type Result struct {
	// Data[i] is the chunk size Xᵢ (data elements) handed to worker i.
	Data []float64
	// Makespan is the common finish time of all participating workers.
	Makespan float64
	// Order is the one-port emission order (nil for parallel links).
	Order []int
	// Load echoes the problem instance.
	Load Load
}

// WorkDone returns W_partial = Σ Xᵢ^α, the work the phase accomplishes.
func (r Result) WorkDone() float64 {
	s := 0.0
	for _, x := range r.Data {
		s += r.Load.ChunkWork(x)
	}
	return s
}

// WorkFraction returns W_partial / W ∈ (0, 1] — the share of the full
// computation an optimal DLT phase can claim. Section 2 proves this tends
// to zero with the platform size for any α > 1.
func (r Result) WorkFraction() float64 { return r.WorkDone() / r.Load.TotalWork() }

// TotalData returns Σ Xᵢ (should equal N).
func (r Result) TotalData() float64 {
	s := 0.0
	for _, x := range r.Data {
		s += x
	}
	return s
}

// Validate checks feasibility: non-negative chunks summing to N.
func (r Result) Validate() error {
	if math.Abs(r.TotalData()-r.Load.N) > 1e-6*r.Load.N {
		return fmt.Errorf("nldlt: chunks sum to %v, want %v", r.TotalData(), r.Load.N)
	}
	for i, x := range r.Data {
		if x < -1e-9 || math.IsNaN(x) {
			return fmt.Errorf("nldlt: chunk %d is %v", i, x)
		}
	}
	return nil
}

// Chunks converts the result into simulator chunks (Work = Xᵢ^α so the
// simulator charges wᵢ·Xᵢ^α of compute time).
func (r Result) Chunks() []dessim.Chunk {
	idxs := r.Order
	if idxs == nil {
		idxs = make([]int, len(r.Data))
		for i := range idxs {
			idxs[i] = i
		}
	}
	chunks := make([]dessim.Chunk, 0, len(idxs))
	for _, i := range idxs {
		chunks = append(chunks, dessim.Chunk{Worker: i, Data: r.Data[i], Work: r.Load.ChunkWork(r.Data[i])})
	}
	return chunks
}

// EqualSplit hands every worker N/P data elements — the strategy Section 2
// analyzes on homogeneous platforms, where it is optimal: "each Pᵢ
// receives N/P data elements in time (N/P)c and starts processing them
// immediately until time (N/P)c + (N/P)^α w".
func EqualSplit(p *platform.Platform, l Load) (Result, error) {
	if err := l.Validate(); err != nil {
		return Result{}, err
	}
	n := float64(p.P())
	data := make([]float64, p.P())
	ms := 0.0
	for i := range data {
		data[i] = l.N / n
		w := p.Worker(i)
		t := w.CommTime(data[i]) + w.PowerCompTime(data[i], l.Alpha)
		if t > ms {
			ms = t
		}
	}
	return Result{Data: data, Makespan: ms, Load: l}, nil
}

// chunkForDeadline returns the largest X ≥ 0 such that
// offset + X/bw + X^α/speed ≤ T, or 0 when even X=0 misses the deadline.
// The cost is convex and increasing in X, so solve.Largest finds X
// exactly from chunkStart.
func chunkForDeadline(offset, bw, speed, alpha, t float64) float64 {
	if offset >= t {
		return 0
	}
	budget := t - offset
	return solve.Largest(chunkCost(bw, speed, alpha), budget, 0, chunkStart(budget, bw, speed, alpha))
}

// chunkStart is where the solve for a chunk starts: the least of the two
// bounds the cost's terms give alone, X/bw ≤ budget and X^α/speed ≤ budget.
func chunkStart(budget, bw, speed, alpha float64) float64 {
	return min(budget*bw, math.Pow(budget*speed, 1/alpha))
}

// chunkCost is the time x/bw + x^α/speed to receive and process x
// elements, with its slope 1/bw + α·x^(α-1)/speed.
func chunkCost(bw, speed, alpha float64) func(x float64) (float64, float64) {
	return func(x float64) (float64, float64) {
		work := powAlpha(x, alpha) / speed
		return x/bw + work, 1/bw + alpha*work/x
	}
}

// powAlpha is math.Pow(x, alpha), with α = 2 and α = 3 computed as the
// products x·x and x·(x·x). For a normal result these are the same
// floats: the pure-Go Pow (every GOARCH but s390x) squares and multiplies
// the Frexp mantissa in that order, rounding each product once, and
// rescales with an exact Ldexp.
func powAlpha(x, alpha float64) float64 {
	switch alpha {
	case 2:
		return x * x
	case 3:
		return x * (x * x)
	}
	return math.Pow(x, alpha)
}

// OptimalParallel solves the non-linear single-round allocation under the
// paper's parallel-links model: choose Xᵢ ≥ 0 with ΣXᵢ = N minimizing the
// makespan. At the optimum all workers finish simultaneously at time T
// with cᵢXᵢ + wᵢXᵢ^α = T; the solver bisects on T (ΣXᵢ(T) is strictly
// increasing).
func OptimalParallel(p *platform.Platform, l Load) (Result, error) {
	return solveEqualFinish(p, l, nil, false)
}

// OptimalOnePort solves the sequential single-installment problem of the
// non-linear DLT literature: the master feeds workers one after the other
// in the given order (all workers, default order when nil), worker k
// starting its transfer when worker k-1's ends, and all workers finish at
// the same time T:
//
//	Σ_{j≤k} c_j X_j + w_k X_k^α = T  for every k.
//
// This is the optimization problem of references [31–35], solved here by
// bisection on T around an exact solve for each chunk.
func OptimalOnePort(p *platform.Platform, l Load, order []int) (Result, error) {
	if order == nil {
		order = make([]int, p.P())
		for i := range order {
			order[i] = i
		}
	}
	if len(order) != p.P() {
		return Result{}, fmt.Errorf("nldlt: order has %d entries for %d workers", len(order), p.P())
	}
	seen := make([]bool, p.P())
	for _, idx := range order {
		if idx < 0 || idx >= p.P() || seen[idx] {
			return Result{}, fmt.Errorf("nldlt: order is not a permutation: %v", order)
		}
		seen[idx] = true
	}
	return solveEqualFinish(p, l, order, true)
}

// solveEqualFinish solves for the common finish time T with solve.Level.
// For one-port mode the per-worker communication offsets accumulate in
// emission order.
func solveEqualFinish(p *platform.Platform, l Load, order []int, onePort bool) (Result, error) {
	if err := l.Validate(); err != nil {
		return Result{}, err
	}
	idxs := order
	if idxs == nil {
		idxs = make([]int, p.P())
		for i := range idxs {
			idxs[i] = i
		}
	}
	// totalFor fills data with each worker's chunk at finish time t and
	// returns their sum.
	data := make([]float64, p.P())
	totalFor := func(t float64) float64 {
		sum := 0.0
		offset := 0.0
		// chunkForDeadline is pure: a worker whose (bandwidth, speed,
		// offset) equals the previous one's reuses its chunk, so a
		// homogeneous parallel-links step costs one inner solve, not p.
		var prev platform.Worker
		prevOffset, x := math.NaN(), 0.0
		for _, i := range idxs {
			w := p.Worker(i)
			if w.Bandwidth != prev.Bandwidth || w.Speed != prev.Speed || offset != prevOffset {
				x = chunkForDeadline(offset, w.Bandwidth, w.Speed, l.Alpha, t)
				prev, prevOffset = w, offset
			}
			data[i] = x
			sum += x
			if onePort {
				offset += w.CommTime(x)
			}
		}
		return sum
	}
	_, tHi, err := solve.Level(totalFor, l.N, func(hi float64) float64 { return 1e-14 * (1 + hi) })
	if err != nil {
		return Result{}, fmt.Errorf("nldlt: failed to bracket the makespan: %w", err)
	}
	sum := totalFor(tHi)
	// Normalize the residual bisection slack onto the chunks so that the
	// result is exactly feasible (ΣXᵢ = N).
	if sum > 0 {
		scale := l.N / sum
		for i := range data {
			data[i] *= scale
		}
	}
	res := Result{Data: data, Makespan: tHi, Load: l}
	if onePort {
		res.Order = append([]int(nil), idxs...)
	}
	return res, nil
}
