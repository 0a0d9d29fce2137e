package dessim

import (
	"fmt"

	"nlfl/internal/platform"
	"nlfl/internal/trace"
)

// CommMode selects the master's outgoing-communication model.
type CommMode int

// Communication models.
const (
	// ParallelLinks is the paper's Section 1.2 model: all master→worker
	// transfers may proceed simultaneously, each limited only by the
	// incoming bandwidth of its worker.
	ParallelLinks CommMode = iota
	// OnePort serializes the master's sends (the classical DLT model used
	// by the non-linear DLT literature the paper refutes): at most one
	// outgoing transfer at a time, in schedule order.
	OnePort
)

// String implements fmt.Stringer.
func (m CommMode) String() string {
	switch m {
	case ParallelLinks:
		return "parallel-links"
	case OnePort:
		return "one-port"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Chunk is one scheduled transfer+computation: Data units are sent to
// Worker, which then performs Work units of useful work (taking
// Work/speed time). The translation from data size to work is the
// caller's: linear loads use Work = Data, α-power loads Work = Data^α.
type Chunk struct {
	Worker int
	Data   float64
	Work   float64
}

// RunSingleRound executes a static schedule: every chunk is sent exactly
// once, in slice order. In OnePort mode the order is the master's emission
// order; in ParallelLinks mode it is the per-worker emission order. A
// worker computes each chunk after fully receiving it (no pipelining of a
// chunk's own communication and computation, per the paper's model), and
// its CPU processes chunks in arrival order. Each chunk's spans carry its
// slice index as the task id.
func RunSingleRound(p *platform.Platform, chunks []Chunk, mode CommMode) (*trace.Timeline, error) {
	tl := trace.New(p.P())
	port := &Resource{}              // master's one-port resource
	links := make([]Resource, p.P()) // per-worker incoming links
	cpus := make([]Resource, p.P())  // per-worker CPUs
	for idx, ch := range chunks {
		if ch.Worker < 0 || ch.Worker >= p.P() {
			return nil, fmt.Errorf("dessim: chunk %d targets unknown worker %d", idx, ch.Worker)
		}
		if ch.Data < 0 || ch.Work < 0 {
			return nil, fmt.Errorf("dessim: chunk %d has negative size (%v data, %v work)", idx, ch.Data, ch.Work)
		}
		w := p.Worker(ch.Worker)
		commDur := w.CommTime(ch.Data)
		var recvStart, recvEnd float64
		if mode == OnePort {
			recvStart, recvEnd = port.Book(0, commDur)
		} else {
			recvStart, recvEnd = links[ch.Worker].Book(0, commDur)
		}
		tl.Add(ch.Worker, trace.Span{Kind: trace.Comm, Start: recvStart, End: recvEnd, Data: ch.Data, Task: idx})
		compStart, compEnd := cpus[ch.Worker].Book(recvEnd, w.LinearCompTime(ch.Work))
		tl.Add(ch.Worker, trace.Span{Kind: trace.Compute, Start: compStart, End: compEnd, Work: ch.Work, Task: idx})
	}
	return tl, nil
}

// Task is one unit of a demand-driven pool: Data units must be shipped to
// whichever worker claims it, which then performs Work units of work.
type Task struct {
	Data float64
	Work float64
}

// RunDemandDriven executes a demand-driven (MapReduce-style) distribution:
// the task pool is served FIFO; every idle worker requests the next task,
// receives its data, computes, and requests again, until the pool drains.
// This is the execution model behind the paper's Homogeneous Blocks
// strategy (Section 4.1.1): "processors ask for new tasks as soon as they
// end processing one", so faster processors automatically get more chunks.
func RunDemandDriven(p *platform.Platform, tasks []Task, mode CommMode) (*trace.Timeline, error) {
	for i, t := range tasks {
		if t.Data < 0 || t.Work < 0 {
			return nil, fmt.Errorf("dessim: task %d has negative size (%v data, %v work)", i, t.Data, t.Work)
		}
	}
	eng := NewEngine()
	tl := trace.New(p.P())
	port := &Resource{}
	next := 0

	var assign func(worker int)
	assign = func(worker int) {
		if next >= len(tasks) {
			return
		}
		taskID := next
		task := tasks[next]
		next++
		w := p.Worker(worker)
		commDur := w.CommTime(task.Data)
		var recvStart, recvEnd float64
		if mode == OnePort {
			recvStart, recvEnd = port.Book(eng.Now(), commDur)
		} else {
			recvStart, recvEnd = eng.Now(), eng.Now()+commDur
		}
		tl.Add(worker, trace.Span{Kind: trace.Comm, Start: recvStart, End: recvEnd, Data: task.Data, Task: taskID})
		compEnd := recvEnd + w.LinearCompTime(task.Work)
		tl.Add(worker, trace.Span{Kind: trace.Compute, Start: recvEnd, End: compEnd, Work: task.Work, Task: taskID})
		eng.At(compEnd, func() { assign(worker) })
	}

	for i := 0; i < p.P(); i++ {
		worker := i
		eng.At(0, func() { assign(worker) })
	}
	eng.Run()
	if next < len(tasks) {
		return nil, fmt.Errorf("dessim: %d tasks left unassigned", len(tasks)-next)
	}
	return tl, nil
}
