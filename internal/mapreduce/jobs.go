package mapreduce

import "nlfl/internal/matmul"

// CellKey identifies one output cell (i, j) of a matrix product.
type CellKey struct{ I, J int }

// PairRecord is one record of the replicated matrix-multiplication
// dataset of Section 1.1: a compatible pair (aᵢₖ, bₖⱼ) for one (i, k, j).
// The dataset holds n³ such records for an n×n product — the data
// expansion ("the initial N² size data is transformed into a N³ size
// data") that makes the non-linear workload MapReduce-able.
type PairRecord struct {
	I, K, J int
	A, B    float64
}

// BuildPairDataset materializes the full n³ replicated dataset for A·B.
// It is only meant for small n; the closed forms in volumes.go cover the
// asymptotics.
func BuildPairDataset(a, b *matmul.Matrix) []PairRecord {
	n := a.Rows
	recs := make([]PairRecord, 0, n*n*n)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			for j := 0; j < b.Cols; j++ {
				recs = append(recs, PairRecord{I: i, K: k, J: j, A: a.At(i, k), B: b.At(k, j)})
			}
		}
	}
	return recs
}

// MatMulPairJob is the Section 1.1 MapReduce matrix multiplication: Map
// turns each (aᵢₖ, bₖⱼ) pair into (key (i,j), value aᵢₖ·bₖⱼ) and Reduce
// sums the n partial products per key. The combiner performs the local
// pre-summation a real deployment would use.
func MatMulPairJob(mappers, reducers int, combine bool) *Job[PairRecord, CellKey, float64, float64] {
	j := &Job[PairRecord, CellKey, float64, float64]{
		Name:     "matmul-pairs",
		Mappers:  mappers,
		Reducers: reducers,
		Map: func(r PairRecord, emit Emit[CellKey, float64]) {
			emit(CellKey{r.I, r.J}, r.A*r.B)
		},
		Reduce: func(_ CellKey, vs []float64) float64 {
			s := 0.0
			for _, v := range vs {
				s += v
			}
			return s
		},
	}
	if combine {
		j.Combine = func(_ CellKey, vs []float64) float64 {
			s := 0.0
			for _, v := range vs {
				s += v
			}
			return s
		}
	}
	return j
}

// RunMatMulPairs multiplies A·B through the replicated-pair MapReduce job
// and reassembles the dense result.
func RunMatMulPairs(a, b *matmul.Matrix, mappers, reducers int, combine bool) (*matmul.Matrix, Counters, error) {
	job := MatMulPairJob(mappers, reducers, combine)
	out, ctr, err := job.Run(BuildPairDataset(a, b))
	if err != nil {
		return nil, ctr, err
	}
	c := matmul.New(a.Rows, b.Cols)
	for k, v := range out {
		c.Set(k.I, k.J, v)
	}
	return c, ctr, nil
}
