package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"nlfl/internal/stats"
)

// parallel runs step(0) … step(n-1) on up to GOMAXPROCS goroutines and
// returns the error of the lowest failing index, whatever order the steps
// finished in; a step that panics fails with the panic as its error.
// Every step runs, and must write only to its own results.
func parallel(n int, step func(i int) error) error {
	errs := make([]error, n)
	run := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				errs[i] = fmt.Errorf("experiments: step %d panicked: %v", i, r)
			}
		}()
		errs[i] = step(i)
	}
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			run(i)
		}
	}
	var wg sync.WaitGroup
	for g := min(runtime.GOMAXPROCS(0), n); g > 1; g-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work() // the caller is one of the workers: n ≤ 1 spawns nothing
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// perTrial hands trial n generators split from root — their seeds all
// drawn, in trial order, before any trial runs; each generator computes
// its draws from its own seed, inside its trial — and returns the outcomes
// in trial order for the caller to fold sequentially: bit-identical at any
// GOMAXPROCS.
func perTrial[T any](root *stats.RNG, n int, trial func(r *stats.RNG) (T, error)) ([]T, error) {
	rngs := make([]*stats.RNG, max(n, 0))
	for i := range rngs {
		rngs[i] = root.Split()
	}
	out := make([]T, len(rngs))
	err := parallel(len(rngs), func(i int) (err error) {
		out[i], err = trial(rngs[i])
		return err
	})
	return out, err
}

// perTrialOnce is perTrial for trials whose outcome cannot depend on their
// generator, such as a platform drawn from a stats.Constant, which draws
// nothing. It draws the same n seeds from root, so the points after it see
// the same stream, runs the trial once, on the first seed's generator, and
// returns n copies of its outcome: stats.Welford folds n equal values into
// the same mean, a zero deviation and the same extremes.
func perTrialOnce[T any](root *stats.RNG, n int, trial func(r *stats.RNG) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	first := root.Split()
	for range n - 1 {
		root.Int63() // the seed Split would have drawn
	}
	t, err := trial(first)
	if err != nil {
		return nil, err
	}
	out := make([]T, n)
	for i := range out {
		out[i] = t
	}
	return out, nil
}
