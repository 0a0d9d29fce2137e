// Package partition implements the rectangle-partitioning algorithms
// behind the paper's Heterogeneous Blocks strategy (Section 4.1.2).
//
// The problem, introduced by Beaumont, Boudet, Rastello and Robert
// ("Partitioning a square into rectangles: NP-completeness and
// approximation algorithms", Algorithmica 34(3), 2002 — the paper's
// reference [41]): partition the unit square into p non-overlapping
// rectangles of prescribed areas a₁…a_p (Σaᵢ = 1), minimizing either the
// sum of the half-perimeters (PERI-SUM) or their maximum (PERI-MAX).
//
// In the outer-product/matrix-multiplication setting, rectangle i's area
// is worker i's normalized speed xᵢ (perfect load balance) and its
// half-perimeter is the amount of vector data the worker must receive, so
// PERI-SUM is exactly the total communication volume. The trivial lower
// bound is LB = 2Σ√aᵢ (every rectangle is at best a square). On the
// paper's speed distributions the column-based algorithm reproduced here
// is observed within Ĉ ≤ 1 + (5/4)·LB, hence Ĉ ≤ (7/4)·LB since LB ≥ 2;
// that is observed, not guaranteed: areas spread over twelve decades and
// more reach Ĉ = 1.94·LB (TestPeriSumSkewedCounterexamples).
//
// # API
//
// [PeriSum] is the column-based PERI-SUM approximation, [SqrtHeuristic]
// the baseline, and [GuillotineOptimal] an exact dynamic program for
// small p.
// [LowerBound] scores any of them against 2Σ√aᵢ. The resulting unit
// [Partition] is scaled onto an N×N integer domain by
// internal/core.SnapPlan before real execution (see docs/PERFORMANCE.md).
package partition
