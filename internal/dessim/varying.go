package dessim

import (
	"fmt"
	"math"

	"nlfl/internal/platform"
	"nlfl/internal/trace"
)

// Epoch is one piece of a piecewise-constant speed profile: until time
// Until, worker w computes at Factor[w] times its nominal speed. The
// paper's Section 1.1 motivates MapReduce's demand-driven scheduling with
// exactly this phenomenon — "a detection of nodes that perform poorly (in
// order to re-assign tasks that slow down the process)" — and the
// demand-driven distribution adapts to it with no explicit detection at
// all: a slowed worker simply claims fewer tasks.
type Epoch struct {
	// Until is the epoch's end time (the last epoch should use
	// math.Inf(1)).
	Until float64
	// Factor[w] scales worker w's speed during the epoch (≥ 0; zero
	// freezes the worker).
	Factor []float64
}

// validateEpochs checks monotone boundaries and factor vector shapes.
func validateEpochs(epochs []Epoch, p int) error {
	if len(epochs) == 0 {
		return fmt.Errorf("dessim: need at least one epoch")
	}
	prev := 0.0
	for i, e := range epochs {
		if len(e.Factor) != p {
			return fmt.Errorf("dessim: epoch %d has %d factors for %d workers", i, len(e.Factor), p)
		}
		for w, f := range e.Factor {
			if f < 0 || math.IsNaN(f) {
				return fmt.Errorf("dessim: epoch %d factor[%d] = %v", i, w, f)
			}
		}
		if e.Until <= prev {
			return fmt.Errorf("dessim: epoch %d ends at %v, not after %v", i, e.Until, prev)
		}
		prev = e.Until
	}
	if !math.IsInf(epochs[len(epochs)-1].Until, 1) {
		return fmt.Errorf("dessim: last epoch must extend to +Inf")
	}
	return nil
}

// finishAcross integrates worker w's effective speed from `start` until
// `work` units complete, returning the finish time (+Inf if the profile
// starves the worker forever).
func finishAcross(epochs []Epoch, pl *platform.Platform, w int, start, work float64) float64 {
	if work <= 0 {
		return start
	}
	speed := pl.Worker(w).Speed
	t := start
	remaining := work
	for _, e := range epochs {
		if e.Until <= t {
			continue
		}
		rate := speed * e.Factor[w]
		span := e.Until - t
		if rate > 0 {
			need := remaining / rate
			if need <= span {
				return t + need
			}
			remaining -= rate * span
		}
		t = e.Until
	}
	return math.Inf(1)
}

// RunSingleRoundVarying executes a static schedule (like RunSingleRound
// with parallel links) on a platform whose compute speeds follow the
// piecewise-constant profile. Transfers run at nominal bandwidth; only
// computation slows down. A static schedule cannot react to a slowdown —
// the slowed worker keeps its whole chunk — which is exactly the
// fragility the demand-driven runner below avoids.
func RunSingleRoundVarying(pl *platform.Platform, chunks []Chunk, epochs []Epoch) (*trace.Timeline, error) {
	if err := validateEpochs(epochs, pl.P()); err != nil {
		return nil, err
	}
	tl := trace.New(pl.P())
	links := make([]Resource, pl.P())
	cpuFree := make([]float64, pl.P())
	for idx, ch := range chunks {
		if ch.Worker < 0 || ch.Worker >= pl.P() {
			return nil, fmt.Errorf("dessim: chunk %d targets unknown worker %d", idx, ch.Worker)
		}
		if ch.Data < 0 || ch.Work < 0 {
			return nil, fmt.Errorf("dessim: chunk %d has negative size", idx)
		}
		w := pl.Worker(ch.Worker)
		recvStart, recvEnd := links[ch.Worker].Book(0, w.CommTime(ch.Data))
		tl.Add(ch.Worker, trace.Span{Kind: trace.Comm, Start: recvStart, End: recvEnd, Data: ch.Data, Task: idx})
		compStart := recvEnd
		if cpuFree[ch.Worker] > compStart {
			compStart = cpuFree[ch.Worker]
		}
		compEnd := finishAcross(epochs, pl, ch.Worker, compStart, ch.Work)
		if math.IsInf(compEnd, 1) {
			return nil, fmt.Errorf("dessim: chunk %d starves on frozen worker %d", idx, ch.Worker)
		}
		cpuFree[ch.Worker] = compEnd
		tl.Add(ch.Worker, trace.Span{Kind: trace.Compute, Start: compStart, End: compEnd, Work: ch.Work, Task: idx})
	}
	return tl, nil
}

// RunDemandDrivenVarying executes a demand-driven pool like
// RunDemandDriven (parallel links, data shipped at nominal bandwidth) on
// a platform whose compute speeds follow the piecewise-constant profile.
// A worker whose effective rate is zero simply stops claiming work until
// the pool finishes elsewhere.
func RunDemandDrivenVarying(pl *platform.Platform, tasks []Task, epochs []Epoch) (*trace.Timeline, error) {
	if err := validateEpochs(epochs, pl.P()); err != nil {
		return nil, err
	}
	for i, t := range tasks {
		if t.Data < 0 || t.Work < 0 {
			return nil, fmt.Errorf("dessim: task %d has negative size", i)
		}
	}
	eng := NewEngine()
	tl := trace.New(pl.P())
	next := 0

	var assign func(worker int)
	assign = func(worker int) {
		if next >= len(tasks) {
			return
		}
		taskID := next
		task := tasks[next]
		w := pl.Worker(worker)
		recvEnd := eng.Now() + w.CommTime(task.Data)
		compEnd := finishAcross(epochs, pl, worker, recvEnd, task.Work)
		if math.IsInf(compEnd, 1) {
			// The worker is starved for the rest of time: leave the task
			// for someone else and retire this worker.
			return
		}
		next++
		tl.Add(worker, trace.Span{Kind: trace.Comm, Start: eng.Now(), End: recvEnd, Data: task.Data, Task: taskID})
		tl.Add(worker, trace.Span{Kind: trace.Compute, Start: recvEnd, End: compEnd, Work: task.Work, Task: taskID})
		eng.At(compEnd, func() { assign(worker) })
	}
	for i := 0; i < pl.P(); i++ {
		worker := i
		eng.At(0, func() { assign(worker) })
	}
	eng.Run()
	if next < len(tasks) {
		return nil, fmt.Errorf("dessim: %d tasks stranded (all remaining workers starved)", len(tasks)-next)
	}
	return tl, nil
}
