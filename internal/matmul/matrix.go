package matmul

import (
	"errors"
	"fmt"
	"math"

	"nlfl/internal/stats"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zero Rows×Cols matrix.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("matmul: invalid shape %d×%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Random returns a Rows×Cols matrix with entries uniform in [-1, 1).
func Random(rows, cols int, seed int64) *Matrix {
	m := New(rows, cols)
	r := stats.NewRNG(seed)
	for i := range m.Data {
		m.Data[i] = 2*r.Float64() - 1
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Equal reports whether m and o agree element-wise within tol.
func (m *Matrix) Equal(o *Matrix, tol float64) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i := range m.Data {
		if math.Abs(m.Data[i]-o.Data[i]) > tol {
			return false
		}
	}
	return true
}

// checkMul validates multiplication shapes.
func checkMul(a, b *Matrix) error {
	if a.Cols != b.Rows {
		return fmt.Errorf("matmul: shape mismatch %d×%d · %d×%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	return nil
}

// Naive computes C = A·B with the textbook triple loop (ikj order for
// cache friendliness). It is the reference implementation.
func Naive(a, b *Matrix) (*Matrix, error) {
	if err := checkMul(a, b); err != nil {
		return nil, err
	}
	c := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			aik := a.Data[i*a.Cols+k]
			if aik == 0 {
				continue
			}
			cRow := c.Data[i*c.Cols:]
			bRow := b.Data[k*b.Cols:]
			for j := 0; j < b.Cols; j++ {
				cRow[j] += aik * bRow[j]
			}
		}
	}
	return c, nil
}

// Blocked computes C = A·B with loop blocking (tile size bs), the standard
// high-performance decomposition (ref [43]).
func Blocked(a, b *Matrix, bs int) (*Matrix, error) {
	if err := checkMul(a, b); err != nil {
		return nil, err
	}
	if bs <= 0 {
		return nil, errors.New("matmul: block size must be positive")
	}
	c := New(a.Rows, b.Cols)
	for ii := 0; ii < a.Rows; ii += bs {
		iMax := min(ii+bs, a.Rows)
		for kk := 0; kk < a.Cols; kk += bs {
			kMax := min(kk+bs, a.Cols)
			for jj := 0; jj < b.Cols; jj += bs {
				jMax := min(jj+bs, b.Cols)
				for i := ii; i < iMax; i++ {
					for k := kk; k < kMax; k++ {
						aik := a.Data[i*a.Cols+k]
						cRow := c.Data[i*c.Cols:]
						bRow := b.Data[k*b.Cols:]
						for j := jj; j < jMax; j++ {
							cRow[j] += aik * bRow[j]
						}
					}
				}
			}
		}
	}
	return c, nil
}

// Parallel computes C = A·B splitting row bands across `workers`
// goroutines: an alias of ParallelTiled, so each band runs the packed
// register-blocked kernel and this is also the fast path.
func Parallel(a, b *Matrix, workers int) (*Matrix, error) {
	return ParallelTiled(a, b, workers)
}

// OuterProduct computes C = A·B as a sum of N rank-1 updates
// C += A[:,k] × B[k,:] — the algorithmic skeleton of the paper's Figure 3:
// at step k the k-th column of A and the k-th row of B are broadcast and
// every processor updates its tile with their outer product. Here the
// "processors" are fused into one address space; the layout packages
// account for who would receive what.
func OuterProduct(a, b *Matrix) (*Matrix, error) {
	if err := checkMul(a, b); err != nil {
		return nil, err
	}
	c := New(a.Rows, b.Cols)
	for k := 0; k < a.Cols; k++ {
		bRow := b.Data[k*b.Cols:]
		for i := 0; i < a.Rows; i++ {
			aik := a.Data[i*a.Cols+k]
			if aik == 0 {
				continue
			}
			cRow := c.Data[i*c.Cols:]
			for j := 0; j < b.Cols; j++ {
				cRow[j] += aik * bRow[j]
			}
		}
	}
	return c, nil
}

// VectorOuter computes the outer product a̅ᵀ × b̅ of two vectors — the
// Section 4.1 workload (N data, N² work).
func VectorOuter(a, b []float64) *Matrix {
	m := New(len(a), len(b))
	OuterFill(m.Data, m.Cols, a, b)
	return m
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
