// Package samplesort implements the parallel sample sort of the paper's
// Section 3 — the workload that, unlike truly non-linear loads, *is*
// amenable to Divisible Load Theory after a cheap pre-processing step.
//
// Sorting N keys costs N·log N: splitting the input into p lists of N/p
// keys and sorting them in parallel performs N·log N - N·log p of that
// work, so the non-divisible fraction log p / log N vanishes for large N.
// The pre-processing that makes the p partial sorts compose into a fully
// sorted output is randomized splitter selection (Frazer & McKellar's
// sample sort, refs [38,39]), in three steps mirroring the paper's
// Figure 1:
//
//	Step 1: draw s·p random sample keys (oversampling ratio s), sort the
//	        sample, keep the keys of rank s, 2s, …, (p-1)s as splitters;
//	Step 2: route every key to its bucket by binary search (N·log p);
//	Step 3: sort the p buckets independently, one worker per bucket.
//
// With s = log²N, the largest bucket is (N/p)(1 + (1/log N)^(1/3)) with
// probability at least 1 - N^(-1/3) (Theorem B.4 of Blelloch et al.,
// ref [40]), so Step 3 dominates and the parallel time is optimal with
// high probability.
//
// # API
//
// [Sort] is the real three-step implementation on one machine, and
// [Route] stops after Step 2 with the same [Trace], for callers that read
// bucket sizes only; [SortHeterogeneous] and [SortHeterogeneousBalanced]
// size buckets to worker speeds on the same steps. All of them route a key
// stream that can be walked again, in blocks: Step 1 sorts its random key
// indices and picks from each block the sample keys that fall in it, in
// one walk; Step 2 counts the buckets in a second walk, one loop over each
// block with the routing inlined. A slice is such a stream of one block,
// and [RouteStream] takes any other, so a caller that can regenerate its
// keys from a seed (the E3 sweep, a 4 096-key buffer at a time) reads
// bucket sizes without storing its keys. [SimulateDistributed]
// replays the pipeline on a simulated star platform, and theory.go
// ([Cost], [TheoremB4Threshold], [NonDivisibleFraction],
// [CheckConcentration]) holds the closed forms the measurements are
// compared against.
package samplesort
