// Package nlfl is a Go reproduction of "Non-Linear Divisible Loads: There
// is No Free Lunch" (Olivier Beaumont, Hubert Larchevêque, Loris Marchal —
// IPDPS 2013, INRIA research report RR-8170).
//
// The library implements, from scratch and on the standard library only:
//
//   - classical linear Divisible Load Theory on star platforms
//     (internal/dlt) and its futile non-linear extension with the
//     Section 2 no-free-lunch analysis (internal/nldlt);
//   - the parallel sample sort of Section 3, real and simulated, with the
//     Theorem B.4 concentration checks (internal/samplesort);
//   - the PERI-SUM rectangle partitioners of Beaumont et al.
//     2002 used by the Heterogeneous Blocks strategy (internal/partition);
//   - the three outer-product data-distribution strategies and their
//     communication accounting (internal/outer), the matrix-
//     multiplication layouts and kernels (internal/matmul), and an
//     in-memory MapReduce engine with shuffle accounting and speculative
//     execution (internal/mapreduce);
//   - a discrete-event simulator for master–worker stars
//     (internal/dessim) and the evaluation harness regenerating every
//     figure and table of the paper (internal/experiments).
//
// The package-level benchmarks in bench_test.go regenerate each
// experiment; the cmd/nlfl binary exposes them on the command line; and
// EXPERIMENTS.md records paper-vs-measured values.
package nlfl
