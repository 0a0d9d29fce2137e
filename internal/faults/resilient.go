package faults

import (
	"fmt"
	"math"

	"nlfl/internal/dessim"
	"nlfl/internal/platform"
	"nlfl/internal/trace"
)

// The resilient executor's fixed fault-tolerance settings, in the
// simulation's time units.
const (
	// heartbeatTimeout is the delay between a worker's crash and the
	// master noticing it (re-queueing the lost task): 0 models an ideal
	// failure detector.
	heartbeatTimeout float64 = 0
	// retryBase is the first retry backoff after a dropped transfer;
	// successive retries double it up to retryCap (capped exponential
	// backoff).
	retryBase float64 = 0.25
	retryCap  float64 = 4
	// maxAttempts bounds transfer attempts per assignment; when exhausted
	// the task returns to the pool for any worker to claim.
	maxAttempts int = 8
)

// ResilientOptions tunes the resilient demand-driven executor. The zero
// value runs without speculation or an event sink.
type ResilientOptions struct {
	// Speculate enables straggler mitigation: once the pool is empty, an
	// idle worker may launch one backup copy of the running task with the
	// latest projected finish, if it can beat that finish.
	Speculate bool
	// Sink, when non-nil, observes the engine's event lifecycle
	// (schedule/fire/cancel), so a test can audit the run's causal order
	// alongside the structured Trace.
	Sink dessim.TraceSink
}

// Report is the full fault accounting of one resilient run.
type Report struct {
	// Trace is the structured record of the run: every span, including
	// dropped transfers and partial computations cut short by crashes,
	// carries its outcome (ok/dropped/killed/wasted) and the fault
	// instants appear as markers, so trace.Check can audit the
	// executor's claims. Its Makespan can exceed the job's (a losing
	// speculative copy may still be computing after the last task
	// completed).
	Trace *trace.Timeline `json:"-"`
	// Makespan is the first-completion time of the last task.
	Makespan float64 `json:"makespan"`
	// TasksPerWorker counts winning executions per worker.
	TasksPerWorker []int `json:"tasksPerWorker"`
	// DataShipped is the total volume sent by the master, wasted copies
	// included.
	DataShipped float64 `json:"dataShipped"`
	// ExtraComm is the wasted part of DataShipped: dropped transfers,
	// shipments to workers that crashed, and losing speculative copies.
	ExtraComm float64 `json:"extraComm"`
	// Reexecutions counts task copies restarted because a crash destroyed
	// a running copy.
	Reexecutions int `json:"reexecutions"`
	// LostWork is the partially-completed work (in work units) destroyed
	// by crashes.
	LostWork float64 `json:"lostWork"`
	// WastedWork is the work burned by speculative copies that lost their
	// race.
	WastedWork float64 `json:"wastedWork"`
	// DroppedTransfers and Retries account for flaky links.
	DroppedTransfers int `json:"droppedTransfers"`
	Retries          int `json:"retries"`
	// Backups counts speculative copies launched.
	Backups int `json:"backups"`
	// Timeouts counts crash detections delivered through the heartbeat
	// timeout (one per lost in-flight task).
	Timeouts int `json:"timeouts"`
}

// phase of an in-flight assignment.
type phase int

const (
	phaseTransfer phase = iota
	phaseCompute
	phaseBackoff
)

// assignment is one (worker, task) execution attempt, spanning transfer
// retries and the computation.
type assignment struct {
	task     int
	worker   int
	backup   bool
	attempts int
	ph       phase
	start    float64 // current phase's start time
	finish   float64 // projected compute finish (valid in phaseCompute)
	handle   *dessim.Handle
}

// RunResilientDemandDriven executes the demand-driven Homogeneous Blocks
// distribution (parallel master→worker links, the paper's Section 1.2
// model) under the fault scenario, with the MapReduce-style resilience
// the paper's Section 1.1 invokes: crashed workers' in-flight chunks are
// re-queued after a heartbeat timeout, dropped transfers are retried with
// capped exponential backoff, and (optionally) stragglers are speculated
// against. A crash costs only the chunk in flight: completed results
// stand and other workers' tasks run on. It returns the fault accounting
// and an error if the fault pattern made completion impossible (e.g.
// every worker permanently dead).
//
// This is the one simulated demand-driven master with speculation and
// failures: the experiments, `nlfl faults`, `nlfl trace` and
// examples/cluster all run it, with an empty Scenario when they model no
// faults.
func RunResilientDemandDriven(p *platform.Platform, tasks []dessim.Task, sc Scenario, opt ResilientOptions) (*Report, error) {
	for i, t := range tasks {
		if t.Data < 0 || t.Work < 0 {
			return nil, fmt.Errorf("faults: task %d has negative size", i)
		}
	}
	eng := dessim.NewEngine()
	if opt.Sink != nil {
		eng.SetSink(opt.Sink)
	}
	tab, err := sc.Compile(p.P())
	if err != nil {
		return nil, err
	}
	inj := NewInjector(eng, sc, tab)
	tr := trace.New(p.P())
	rep := &Report{
		Trace:          tr,
		TasksPerWorker: make([]int, p.P()),
	}

	pending := make([]int, len(tasks))
	for i := range pending {
		pending[i] = i
	}
	done := make([]bool, len(tasks))
	doneCount := 0
	copies := make([]int, len(tasks)) // running copies per task
	cur := make([]*assignment, p.P())
	// attemptBudget guards against pathological scenarios (e.g. a
	// drop-probability-1 link window extending forever) turning the
	// simulation into an infinite retry loop.
	attemptBudget := 1000*len(tasks) + 10000
	overBudget := false

	var dispatch func()
	var startTransfer func(a *assignment)

	startCompute := func(a *assignment) {
		w, now := a.worker, eng.Now()
		finish := tab.IntegrateWork(p, w, now, tasks[a.task].Work)
		if math.IsInf(finish, 1) {
			// Frozen for the rest of time: a crash event will reap this
			// assignment; park it with no completion scheduled.
			a.ph = phaseCompute
			a.start, a.finish, a.handle = now, finish, nil
			return
		}
		a.ph, a.start, a.finish = phaseCompute, now, finish
		a.handle = eng.Schedule(finish, func() {
			cur[w] = nil
			copies[a.task]--
			if done[a.task] {
				// Lost the race to a speculative twin.
				tr.Add(w, trace.Span{Kind: trace.Compute, Start: a.start, End: finish, Work: tasks[a.task].Work, Task: a.task, Outcome: trace.Wasted})
				rep.WastedWork += tasks[a.task].Work
				rep.ExtraComm += tasks[a.task].Data
			} else {
				tr.Add(w, trace.Span{Kind: trace.Compute, Start: a.start, End: finish, Work: tasks[a.task].Work, Task: a.task, Outcome: trace.OK})
				done[a.task] = true
				doneCount++
				rep.TasksPerWorker[w]++
				if now := eng.Now(); now > rep.Makespan {
					rep.Makespan = now
				}
			}
			dispatch()
		})
	}

	startTransfer = func(a *assignment) {
		w, now := a.worker, eng.Now()
		if attemptBudget--; attemptBudget < 0 {
			overBudget = true
			cur[w] = nil
			copies[a.task]--
			return
		}
		data := tasks[a.task].Data
		d := 0.0
		if data > 0 {
			d = p.Worker(w).CommTime(data) / tab.LinkScale(w, now)
		}
		dropped := tab.Drop(w, now)
		rep.DataShipped += data
		a.ph, a.start = phaseTransfer, now
		a.handle = eng.Schedule(now+d, func() {
			if !dropped {
				tr.Add(w, trace.Span{Kind: trace.Comm, Start: a.start, End: eng.Now(), Data: data, Task: a.task, Outcome: trace.OK})
				startCompute(a)
				return
			}
			tr.Add(w, trace.Span{Kind: trace.Comm, Start: a.start, End: eng.Now(), Data: data, Task: a.task, Outcome: trace.Dropped})
			tr.Mark(trace.Marker{Kind: trace.MarkDrop, Worker: w, Time: eng.Now(), Note: fmt.Sprintf("task %d", a.task)})
			rep.DroppedTransfers++
			rep.ExtraComm += data
			a.attempts++
			if a.attempts >= maxAttempts {
				// Give up on this link: hand the task back to the pool and
				// put the worker in a cooldown, so it does not immediately
				// re-claim the same task over the same flaky link.
				copies[a.task]--
				pending = append(pending, a.task)
				cool := &assignment{task: -1, worker: w, ph: phaseBackoff}
				cur[w] = cool
				cool.handle = eng.ScheduleAfter(retryCap, func() {
					cur[w] = nil
					dispatch()
				})
				dispatch()
				return
			}
			rep.Retries++
			backoff := math.Min(retryBase*math.Pow(2, float64(a.attempts-1)), retryCap)
			a.ph = phaseBackoff
			a.handle = eng.ScheduleAfter(backoff, func() { startTransfer(a) })
		})
	}

	speculate := func(w int) bool {
		// Back up the running, copy-less task with the latest projected
		// finish — Hadoop's end-of-job straggler mitigation. Deterministic:
		// latest finish wins, ties to the lowest task id.
		now := eng.Now()
		var target *assignment
		for _, a := range cur {
			if a == nil || a.ph != phaseCompute || done[a.task] || copies[a.task] != 1 {
				continue
			}
			if a.finish <= now {
				continue
			}
			if target == nil || a.finish > target.finish || (a.finish == target.finish && a.task < target.task) {
				target = a
			}
		}
		if target == nil {
			return false
		}
		d := 0.0
		if data := tasks[target.task].Data; data > 0 {
			d = p.Worker(w).CommTime(data) / tab.LinkScale(w, now)
		}
		eta := tab.IntegrateWork(p, w, now+d, tasks[target.task].Work)
		if eta >= target.finish {
			return false
		}
		rep.Backups++
		a := &assignment{task: target.task, worker: w, backup: true}
		cur[w] = a
		copies[a.task]++
		startTransfer(a)
		return true
	}

	dispatch = func() {
		for w := 0; w < p.P(); w++ {
			if !inj.Alive(w) || cur[w] != nil || overBudget {
				continue
			}
			claimed := false
			for len(pending) > 0 {
				task := pending[0]
				pending = pending[1:]
				if done[task] {
					continue
				}
				a := &assignment{task: task, worker: w}
				cur[w] = a
				copies[task]++
				startTransfer(a)
				claimed = true
				break
			}
			if !claimed && opt.Speculate && doneCount < len(tasks) {
				speculate(w)
			}
		}
	}

	inj.OnCrash(func(w int, permanent bool) {
		note := "transient"
		if permanent {
			note = "permanent"
		}
		tr.Mark(trace.Marker{Kind: trace.MarkCrash, Worker: w, Time: eng.Now(), Note: note})
		a := cur[w]
		if a == nil {
			return
		}
		cur[w] = nil
		a.handle.Cancel()
		if a.task < 0 {
			return // cooldown sentinel, no task attached
		}
		copies[a.task]--
		now := eng.Now()
		switch a.ph {
		case phaseTransfer:
			tr.Add(w, trace.Span{Kind: trace.Comm, Start: a.start, End: now, Data: tasks[a.task].Data, Task: a.task, Outcome: trace.Killed})
			rep.ExtraComm += tasks[a.task].Data // shipment died with the worker
		case phaseCompute:
			lost := tab.WorkBetween(p, w, a.start, now)
			tr.Add(w, trace.Span{Kind: trace.Compute, Start: a.start, End: now, Work: lost, Task: a.task, Outcome: trace.Killed})
			rep.LostWork += lost
			rep.ExtraComm += tasks[a.task].Data // its data is gone too
		}
		if done[a.task] {
			return // a twin already finished it; nothing to recover
		}
		if copies[a.task] > 0 {
			return // another copy is still running; let it race
		}
		rep.Reexecutions++
		rep.Timeouts++
		task := a.task
		eng.ScheduleAfter(heartbeatTimeout, func() {
			if !done[task] && copies[task] == 0 {
				pending = append(pending, task)
				dispatch()
			}
		})
	})
	inj.OnRecover(func(w int) {
		tr.Mark(trace.Marker{Kind: trace.MarkRecover, Worker: w, Time: eng.Now()})
		dispatch()
	})

	inj.Arm()
	eng.At(0, dispatch)
	eng.Run()

	if overBudget {
		return rep, fmt.Errorf("faults: retry budget exhausted after %d transfer attempts (scenario too hostile)", 1000*len(tasks)+10000)
	}
	if doneCount < len(tasks) {
		return rep, fmt.Errorf("faults: %d of %d tasks never completed (insufficient surviving capacity)", len(tasks)-doneCount, len(tasks))
	}
	return rep, nil
}
