// Package matmul implements the matrix-multiplication side of the paper's
// Section 4.2: real dense kernels (the correctness anchor), the
// ScaLAPACK-style outer-product algorithm of Figure 3, and the
// communication accounting that links a data layout's rectangle geometry
// to the volume of broadcasts the algorithm generates.
//
// # Kernels
//
// Two tiers of dense kernels and one rank-1 fill share the Matrix type:
//
//   - Naive, OuterProduct and VectorOuter are the reference
//     implementations — straightforward loops whose output every other
//     kernel (and every distributed executor) is tested against.
//   - Tiled and ParallelTiled are the measured-performance kernels: a
//     packed GEMM around a 4×8 register-blocked micro-kernel, bit-identical
//     to Naive; inputs too small to benefit fall back to the naive kernel.
//   - OuterFill is the one rank-1 fill loop: VectorOuter, OuterInto and
//     the chunk engines of internal/runtime and internal/service all write
//     their rectangles through it, full width, untiled.
//
// # Layouts
//
// Layout abstracts "which processor owns C(i,j)"; the implementations
// (homogeneous blocks, heterogeneous rectangles, 2.5D replication) are
// scored by CommVolume, the communication model of the paper.
package matmul
