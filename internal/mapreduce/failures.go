package mapreduce

import (
	"fmt"
	"sort"

	"nlfl/internal/dessim"
	"nlfl/internal/platform"
)

// Failure kills one worker at a given time. Per Hadoop's map-phase
// semantics (Section 1.1: "a crucial feature of MapReduce is its inherent
// capability of handling hardware failures"), a failed worker's
// *running* task is re-queued and its *completed* tasks are re-executed
// too (their outputs lived on the dead machine's local disk).
type Failure struct {
	Worker int
	Time   float64
}

// FaultResult extends ScheduleResult with failure accounting.
type FaultResult struct {
	// Makespan is the completion time of the last surviving execution.
	Makespan float64
	// TasksPerWorker counts final (surviving) executions per worker.
	TasksPerWorker []int
	// Reexecutions counts task executions repeated because of failures.
	Reexecutions int
	// LostWork is the work (in task-work units) thrown away on dead
	// workers.
	LostWork float64
}

// ScheduleWithFailures runs the demand-driven distribution under injected
// worker failures on the shared dessim.Engine. The simulation is
// deterministic:
//
//   - between failures the pool drains demand-driven (idle live worker →
//     next pending task, lowest worker index first on ties);
//   - durability (Hadoop map-phase semantics): a completed task's output
//     lives on its worker's local disk, so it survives only if that worker
//     stays alive until the whole job completes. A worker dying at any
//     earlier point — even while idle, long after its last completion —
//     sends every task it completed back to the pool as a re-execution;
//   - at a failure instant every live in-flight execution crossing the
//     instant also bounces back to the pool (the survivors resynchronize
//     at the boundary), and the pool is re-sorted by task index;
//   - an execution finishing exactly at the failure instant counts as
//     completed (and, on the dying worker, completed-then-lost);
//   - a second failure of an already-dead worker is a no-op, and once the
//     job has completed, later failures are free.
func ScheduleWithFailures(p *platform.Platform, tasks []TaskSpec, failures []Failure) (FaultResult, error) {
	for i, t := range tasks {
		if t.Data < 0 || t.Work < 0 {
			return FaultResult{}, fmt.Errorf("mapreduce: task %d has negative size", i)
		}
	}
	for _, f := range failures {
		if f.Worker < 0 || f.Worker >= p.P() {
			return FaultResult{}, fmt.Errorf("mapreduce: failure targets unknown worker %d", f.Worker)
		}
		if f.Time < 0 {
			return FaultResult{}, fmt.Errorf("mapreduce: failure at negative time %v", f.Time)
		}
	}
	fs := append([]Failure(nil), failures...)
	sort.SliceStable(fs, func(a, b int) bool { return fs[a].Time < fs[b].Time })

	res := FaultResult{TasksPerWorker: make([]int, p.P())}
	eng := dessim.NewEngine()
	dead := make([]bool, p.P())
	pending := make([]int, len(tasks))
	for i := range pending {
		pending[i] = i
	}
	type execution struct {
		task   int
		finish float64
	}
	type inflight struct {
		task   int
		finish float64
		handle *dessim.Handle
	}
	completed := make([][]execution, p.P())
	cur := make([]*inflight, p.P())
	jobFinished := false

	var dispatch func()
	dispatch = func() {
		for w := 0; w < p.P(); w++ {
			if dead[w] || cur[w] != nil || len(pending) == 0 {
				continue
			}
			w := w
			task := pending[0]
			pending = pending[1:]
			finish := eng.Now() + tasks[task].Work/p.Worker(w).Speed
			a := &inflight{task: task, finish: finish}
			cur[w] = a
			a.handle = eng.Schedule(finish, func() {
				cur[w] = nil
				completed[w] = append(completed[w], execution{task: a.task, finish: finish})
				dispatch()
			})
		}
	}

	// Failure events are scheduled before the initial dispatch so they win
	// the engine's FIFO tie-break: a failure at t=0 kills its worker before
	// any task is claimed.
	for _, f := range fs {
		f := f
		eng.At(f.Time, func() {
			if jobFinished {
				return // outputs already consumed; the failure is free
			}
			now := eng.Now()
			finished := len(pending) == 0
			for _, a := range cur {
				if a != nil && a.finish > now {
					finished = false
				}
			}
			if finished {
				// Executions finishing exactly now complete right after this
				// event; the job is done and later failures are free.
				jobFinished = true
				return
			}
			if dead[f.Worker] {
				return // duplicate failure of a dead worker: physical no-op
			}
			dead[f.Worker] = true
			for w, a := range cur {
				if a == nil {
					continue
				}
				if w == f.Worker {
					cur[w] = nil
					a.handle.Cancel()
					if a.finish <= now {
						// Completed exactly at the failure instant, then lost
						// with the worker's disk.
						res.Reexecutions++
						res.LostWork += tasks[a.task].Work
					}
					pending = append(pending, a.task)
					continue
				}
				if a.finish > now {
					// Resynchronization: live in-flight work crossing the
					// failure boundary restarts from the boundary.
					cur[w] = nil
					a.handle.Cancel()
					pending = append(pending, a.task)
				}
			}
			lost := completed[f.Worker]
			completed[f.Worker] = nil
			for _, ex := range lost {
				res.LostWork += tasks[ex.task].Work
				pending = append(pending, ex.task)
				res.Reexecutions++
			}
			sort.Ints(pending)
			dispatch()
		})
	}
	eng.At(0, dispatch)
	eng.Run()

	remaining := len(pending)
	for _, a := range cur {
		if a != nil {
			remaining++
		}
	}
	if remaining > 0 {
		live := 0
		for _, d := range dead {
			if !d {
				live++
			}
		}
		if live == 0 {
			return res, fmt.Errorf("mapreduce: all workers dead with %d tasks pending", remaining)
		}
		return res, fmt.Errorf("mapreduce: %d tasks never completed", remaining)
	}
	for w, exs := range completed {
		res.TasksPerWorker[w] = len(exs)
		for _, ex := range exs {
			if ex.finish > res.Makespan {
				res.Makespan = ex.finish
			}
		}
	}
	return res, nil
}
