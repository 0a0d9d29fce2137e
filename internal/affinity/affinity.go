// Package affinity implements the mechanism the paper *proposes* in its
// conclusion: "adding directives in order to declare affinities between
// tasks and data ... favoring among all available tasks on the master
// those that share blocks with data already stored on a slave processor
// in the demand-driven process would improve the results."
//
// The setting is the Section 4.1 outer product cut into g×g identical
// square blocks (the Homogeneous Blocks task shape): block (i, j) needs
// chunk i of vector a and chunk j of vector b, each of N/g elements.
// Three policies of one demand-driven master are compared:
//
//   - PolicyNoCache: plain MapReduce accounting — every block ships its
//     full 2N/g of data (the Comm_hom/k model).
//   - PolicyCache: workers keep every chunk they have received; the
//     master still hands out blocks in scan order, so reuse only happens
//     by luck.
//   - PolicyAffinity: workers cache chunks AND the master serves each
//     request with a remaining block that minimizes the data the worker
//     is missing (ties: scan order) — the paper's proposed directive.
//
// The experiment shows PolicyAffinity recovering most of the gap between
// MapReduce-style distribution and the Heterogeneous Blocks layout while
// remaining fully demand-driven (no platform knowledge in advance).
// RunBounded gives PolicyAffinity's workers LRU caches of a fixed size.
package affinity

import (
	"errors"
	"fmt"
	"math"

	"nlfl/internal/platform"
)

// Policy selects the master's task-assignment rule.
type Policy int

// Available policies.
const (
	// PolicyNoCache ships every block's data in full (no worker state).
	PolicyNoCache Policy = iota
	// PolicyCache keeps received chunks but assigns blocks in scan order.
	PolicyCache
	// PolicyAffinity keeps chunks and assigns each worker the remaining
	// block needing the least new data.
	PolicyAffinity
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyNoCache:
		return "no-cache"
	case PolicyCache:
		return "cache"
	case PolicyAffinity:
		return "affinity"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Result reports one demand-driven run.
type Result struct {
	Policy Policy
	// Grid is g: the domain was g×g blocks.
	Grid int
	// Volume is the total data shipped, in vector elements.
	Volume float64
	// LowerBound is 2N·Σ√xᵢ (same reference as package outer).
	LowerBound float64
	// Ratio is Volume/LowerBound.
	Ratio float64
	// Imbalance is (t_max-t_min)/t_min over per-worker compute times.
	Imbalance float64
	// BlocksPerWorker counts assignments.
	BlocksPerWorker []int
}

// String renders the result.
func (r Result) String() string {
	return fmt.Sprintf("%-9s g=%-4d volume=%.4g ratio=%.3f e=%.3g",
		r.Policy, r.Grid, r.Volume, r.Ratio, r.Imbalance)
}

// Run simulates a demand-driven outer product of size n on the platform,
// with the domain cut into g×g blocks and the given assignment policy.
// Workers request a block whenever idle (all start at time 0, ties by
// index); a block's compute time is its area divided by the worker's
// speed; data transfer is accounted by volume (the Figure 4 currency) and
// does not extend the timeline.
func Run(pl *platform.Platform, n float64, g int, policy Policy) (Result, error) {
	switch policy {
	case PolicyNoCache:
		return run(pl, n, g, policy, false, 0)
	case PolicyCache:
		return run(pl, n, g, policy, false, 2*g)
	case PolicyAffinity:
		return run(pl, n, g, policy, true, 2*g)
	}
	return Result{}, fmt.Errorf("affinity: unknown policy %v", policy)
}

// RunBounded is Run with PolicyAffinity semantics and per-worker LRU
// caches of `capacity` chunks (a and b chunks count alike). The Run
// policies assume workers cache every chunk forever; bounding the cache
// interpolates between the no-cache and unlimited-cache extremes,
// quantifying how much RAM the conclusion's proposal actually needs.
// capacity = 0 degenerates to the no-cache accounting; capacity ≥ 2g
// reproduces PolicyAffinity exactly (a worker can at most ever hold 2g
// distinct chunks).
func RunBounded(pl *platform.Platform, n float64, g, capacity int) (Result, error) {
	if capacity < 0 {
		return Result{}, errors.New("affinity: negative capacity")
	}
	return run(pl, n, g, PolicyAffinity, true, capacity)
}

// run is the one demand-driven master behind every policy. The idle
// worker with the earliest free time (ties: lowest index) takes either
// the next block in scan order or, with leastMissing, the remaining block
// whose chunks it misses fewest of (ties: scan order). Each worker keeps
// an LRU cache of `capacity` chunks; 0 caches nothing and 2g never
// evicts.
func run(pl *platform.Platform, n float64, g int, policy Policy, leastMissing bool, capacity int) (Result, error) {
	if g <= 0 {
		return Result{}, errors.New("affinity: grid must be positive")
	}
	if n <= 0 || math.IsNaN(n) || math.IsInf(n, 0) {
		return Result{}, fmt.Errorf("affinity: invalid size %v", n)
	}
	chunk := n / float64(g)    // one vector chunk, in elements
	blockWork := chunk * chunk // block compute cost
	if math.IsInf(blockWork, 0) {
		return Result{}, fmt.Errorf("affinity: block area (%v/%d)² overflows", n, g)
	}
	p := pl.P()
	taken := make([]bool, g*g) // block (i,j) at i*g+j
	rowTaken := make([]int, g) // taken blocks of each row
	caches := make([]lru, p)
	for w := range caches {
		caches[w] = newLRU(2*g, capacity)
	}
	free := make([]float64, p) // next idle time = busy time so far
	counts := make([]int, p)
	volume := 0.0
	scan := 0 // next unassigned block in scan order

	for remaining := g * g; remaining > 0; remaining-- {
		w := 0
		for cand := 1; cand < p; cand++ {
			if free[cand] < free[w] {
				w = cand
			}
		}
		c := &caches[w]
		// Chunk ids: a-chunk i → i; b-chunk j → g+j.
		block, miss := -1, 3 // 3: worse than any block's 0..2 missing chunks
		if leastMissing {
			for i := 0; i < g && miss > 0; i++ {
				if rowTaken[i] == g {
					continue // row i is exhausted: no candidate
				}
				ma := c.missing(i)
				if ma >= miss {
					continue // no block of row i can beat the best
				}
				for j, tk := range taken[i*g : (i+1)*g] {
					if tk {
						continue
					}
					if m := ma + c.missing(g+j); m < miss {
						block, miss = i*g+j, m
						if m == 0 {
							break
						}
					}
				}
			}
		} else {
			for taken[scan] {
				scan++
			}
			block = scan
			miss = c.missing(block/g) + c.missing(g+block%g)
		}
		taken[block] = true
		rowTaken[block/g]++
		volume += float64(miss) * chunk
		c.touch(block / g)
		c.touch(g + block%g)
		free[w] += blockWork / pl.Worker(w).Speed
		counts[w]++
	}

	lb := 0.0
	for _, x := range pl.NormalizedSpeeds() {
		lb += math.Sqrt(x)
	}
	lb *= 2 * n
	return Result{
		Policy:          policy,
		Grid:            g,
		Volume:          volume,
		LowerBound:      lb,
		Ratio:           volume / lb,
		Imbalance:       imbalance(free),
		BlocksPerWorker: counts,
	}, nil
}

// lru is one worker's fixed-capacity LRU set of chunk ids: stamp[id] is
// the cache clock at id's last touch, 0 when id is absent.
type lru struct {
	stamp    []int64
	clock    int64
	size     int
	capacity int
}

func newLRU(ids, capacity int) lru {
	return lru{stamp: make([]int64, ids), capacity: capacity}
}

// missing is 1 when id is absent, 0 when cached; it leaves recency
// alone.
func (c *lru) missing(id int) int {
	if c.stamp[id] != 0 {
		return 0
	}
	return 1
}

// touch inserts/refreshes id, evicting the least recently used entry when
// over capacity.
func (c *lru) touch(id int) {
	if c.capacity == 0 {
		return
	}
	if c.stamp[id] == 0 {
		c.size++
	}
	c.clock++
	c.stamp[id] = c.clock
	if c.size <= c.capacity {
		return
	}
	oldest := id
	for k, s := range c.stamp {
		if s != 0 && s < c.stamp[oldest] {
			oldest = k
		}
	}
	c.stamp[oldest] = 0
	c.size--
}

// imbalance is (max-min)/min over positive times (+Inf if a worker idles,
// 0 when nothing ran).
func imbalance(ts []float64) float64 {
	tmin, tmax := math.Inf(1), 0.0
	for _, t := range ts {
		if t < tmin {
			tmin = t
		}
		if t > tmax {
			tmax = t
		}
	}
	if tmax == 0 {
		return 0
	}
	if tmin == 0 {
		return math.Inf(1)
	}
	return (tmax - tmin) / tmin
}

// Compare runs all three policies with identical parameters.
func Compare(pl *platform.Platform, n float64, g int) ([]Result, error) {
	out := make([]Result, 0, 3)
	for _, pol := range []Policy{PolicyNoCache, PolicyCache, PolicyAffinity} {
		r, err := Run(pl, n, g, pol)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
