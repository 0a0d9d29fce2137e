// Package mapreduce is an in-memory MapReduce engine with the accounting
// the paper needs: shuffle-volume counters and the menu of matrix-product
// data distributions. The simulated master — demand-driven placement of
// homogeneous tasks on heterogeneous workers, Hadoop-style speculative
// backups and crash recovery — is faults.RunResilientDemandDriven.
//
// The paper (Sections 1.1 and 4) treats MapReduce as the software
// embodiment of Divisible Load Theory: a large computation broken into
// many identical chunks, scattered demand-driven so faster workers
// naturally take more. Its limitation for non-linear workloads is data
// redundancy — running matrix multiplication over MapReduce means feeding
// the framework a *replicated* dataset (all (aᵢₖ, bₖⱼ) pairs — n³ records
// for an n² problem) or accepting block distributions that re-ship vector
// data per block. This package implements the engine faithfully enough to
// measure exactly that redundancy.
package mapreduce

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
)

// Emit is the output channel handed to map functions.
type Emit[K comparable, V any] func(key K, value V)

// Job describes a MapReduce computation from inputs I to per-key results R
// through intermediate pairs (K, V).
type Job[I any, K comparable, V any, R any] struct {
	// Name labels the job in counters.
	Name string
	// Map is applied to every input record.
	Map func(in I, emit Emit[K, V])
	// Combine (optional) pre-reduces each mapper's local pairs for one
	// key, shrinking the shuffle — Hadoop's combiner.
	Combine func(key K, values []V) V
	// Reduce folds all values of one key into the final result.
	Reduce func(key K, values []V) R
	// Mappers and Reducers set the task parallelism (defaults 4 and 4).
	Mappers  int
	Reducers int
}

// Counters tallies the volumes the paper's analysis tracks.
type Counters struct {
	Job            string
	MapTasks       int
	ReduceTasks    int
	InputRecords   int
	MapOutputPairs int
	// ShufflePairs is the number of (K,V) pairs crossing from mappers to
	// reducers (after combining) — the communication volume of the
	// MapReduce execution.
	ShufflePairs int
	OutputKeys   int
}

// String renders the counters on one line.
func (c Counters) String() string {
	return fmt.Sprintf("%s: maps=%d reduces=%d in=%d mapped=%d shuffled=%d out=%d",
		c.Job, c.MapTasks, c.ReduceTasks, c.InputRecords, c.MapOutputPairs, c.ShufflePairs, c.OutputKeys)
}

// Run executes the job on the given inputs with real goroutine
// parallelism and returns the reduced results plus counters. Execution is
// deterministic: reducer inputs are ordered by (mapper index, emission
// order) regardless of goroutine scheduling.
func (j *Job[I, K, V, R]) Run(inputs []I) (map[K]R, Counters, error) {
	if j.Map == nil || j.Reduce == nil {
		return nil, Counters{}, errors.New("mapreduce: job needs Map and Reduce")
	}
	mappers := j.Mappers
	if mappers <= 0 {
		mappers = 4
	}
	reducers := j.Reducers
	if reducers <= 0 {
		reducers = 4
	}
	ctr := Counters{Job: j.Name, MapTasks: mappers, ReduceTasks: reducers, InputRecords: len(inputs)}

	// Map phase: mapper m handles the m-th contiguous input split and
	// writes its output into its own partitioned buffer.
	partitions := make([][][]kvPair[K, V], mappers) // [mapper][reducer][]pair
	mapCounts := make([]int, mappers)
	var wg sync.WaitGroup
	for m := 0; m < mappers; m++ {
		lo := m * len(inputs) / mappers
		hi := (m + 1) * len(inputs) / mappers
		partitions[m] = make([][]kvPair[K, V], reducers)
		wg.Add(1)
		go func(m, lo, hi int) {
			defer wg.Done()
			emit := func(k K, v V) {
				r := partitionOf(k, reducers)
				partitions[m][r] = append(partitions[m][r], kvPair[K, V]{k, v})
				mapCounts[m]++
			}
			for _, in := range inputs[lo:hi] {
				j.Map(in, emit)
			}
			if j.Combine != nil {
				for r := range partitions[m] {
					partitions[m][r] = combinePairs(partitions[m][r], j.Combine)
				}
			}
		}(m, lo, hi)
	}
	wg.Wait()
	for _, c := range mapCounts {
		ctr.MapOutputPairs += c
	}

	// Shuffle + reduce phase: reducer r consumes partition r of every
	// mapper, in mapper order.
	results := make([]map[K]R, reducers)
	shuffle := make([]int, reducers)
	for r := 0; r < reducers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			grouped := map[K][]V{}
			var order []K
			for m := 0; m < mappers; m++ {
				for _, p := range partitions[m][r] {
					if _, seen := grouped[p.K]; !seen {
						order = append(order, p.K)
					}
					grouped[p.K] = append(grouped[p.K], p.V)
					shuffle[r]++
				}
			}
			out := make(map[K]R, len(grouped))
			for _, k := range order {
				out[k] = j.Reduce(k, grouped[k])
			}
			results[r] = out
		}(r)
	}
	wg.Wait()

	final := map[K]R{}
	for r, part := range results {
		ctr.ShufflePairs += shuffle[r]
		for k, v := range part {
			if _, dup := final[k]; dup {
				return nil, ctr, fmt.Errorf("mapreduce: key %v reduced by two reducers", k)
			}
			final[k] = v
		}
	}
	ctr.OutputKeys = len(final)
	return final, ctr, nil
}

// kvPair is one intermediate (key, value) record.
type kvPair[K comparable, V any] struct {
	K K
	V V
}

// combinePairs groups a mapper-local partition by key and applies the
// combiner, preserving first-occurrence key order.
func combinePairs[K comparable, V any](ps []kvPair[K, V], combine func(K, []V) V) []kvPair[K, V] {
	grouped := map[K][]V{}
	var order []K
	for _, p := range ps {
		if _, seen := grouped[p.K]; !seen {
			order = append(order, p.K)
		}
		grouped[p.K] = append(grouped[p.K], p.V)
	}
	out := make([]kvPair[K, V], 0, len(order))
	for _, k := range order {
		out = append(out, kvPair[K, V]{k, combine(k, grouped[k])})
	}
	return out
}

// partitionOf hashes a key to a reducer (FNV-1a over the key's printed
// form — adequate and deterministic for the experiment keys used here).
func partitionOf[K comparable](k K, reducers int) int {
	h := fnv.New32a()
	fmt.Fprintf(h, "%v", k)
	return int(h.Sum32() % uint32(reducers))
}
