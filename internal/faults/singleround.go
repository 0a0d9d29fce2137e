package faults

import (
	"fmt"
	"math"

	"nlfl/internal/dessim"
	"nlfl/internal/platform"
	"nlfl/internal/trace"
)

// SingleRoundReport is the outcome of a static single-round schedule
// executed under a fault scenario. A single-round DLT schedule has no
// feedback channel: the master sends each chunk exactly once, so any
// crash — even a transient one — destroys the target worker's in-flight
// and not-yet-computed chunks with no possibility of re-assignment. The
// quantities below make the paper's Section 1.1 robustness argument
// measurable.
type SingleRoundReport struct {
	// Trace records every span with its outcome: the surviving chunks as
	// OK spans, and the transfers and partial computations a crash or a
	// drop destroyed as Killed or Dropped ones. Chunks never shipped (a
	// dead worker's schedule tail) have no spans; their work appears only
	// in LostWork.
	Trace *trace.Timeline `json:"-"`
	// Completed reports whether every chunk finished.
	Completed bool `json:"completed"`
	// Makespan is the finish time of the surviving work only.
	Makespan float64 `json:"makespan"`
	// CompletedWork and LostWork split the schedule's total work units
	// into survived and destroyed.
	CompletedWork float64 `json:"completedWork"`
	LostWork      float64 `json:"lostWork"`
	// LostFraction is LostWork / (CompletedWork + LostWork), 0 for an
	// empty schedule.
	LostFraction float64 `json:"lostFraction"`
	// LostData is the shipped data whose computation never survived.
	LostData float64 `json:"lostData"`
	// PerWorkerLost[w] is the work lost on worker w.
	PerWorkerLost []float64 `json:"perWorkerLost"`
}

// RunSingleRoundUnderFaults executes a static schedule (parallel
// master→worker links, chunks computed in per-worker emission order)
// under the fault scenario. Straggler windows stretch computations and
// LinkSlow windows stretch transfers; the first crash of a worker —
// permanent or transient — kills its in-flight chunk and everything
// scheduled after it, because a single-round schedule cannot re-send or
// re-assign. LinkDrop windows lose chunks outright (there is no retry
// protocol in single-round DLT). The run is deterministic under the
// scenario seed.
func RunSingleRoundUnderFaults(p *platform.Platform, chunks []dessim.Chunk, sc Scenario) (*SingleRoundReport, error) {
	tab, err := sc.Compile(p.P())
	if err != nil {
		return nil, err
	}
	tr := trace.New(p.P())
	rep := &SingleRoundReport{
		Trace:         tr,
		PerWorkerLost: make([]float64, p.P()),
	}
	// First crash instant per worker, permanent or transient (+Inf when
	// it never crashes).
	crashAt := make([]float64, p.P())
	for w := range crashAt {
		crashAt[w] = tab.CrashAt(w)
	}
	for _, e := range sc.Events {
		switch e.Kind {
		case Crash:
			tr.Mark(trace.Marker{Kind: trace.MarkCrash, Worker: e.Worker, Time: e.Time, Note: "permanent"})
		case Transient:
			crashAt[e.Worker] = math.Min(crashAt[e.Worker], e.Time)
			// Recovery does not help a single-round schedule, but the marker
			// makes the missed opportunity visible on the Gantt chart.
			tr.Mark(trace.Marker{Kind: trace.MarkCrash, Worker: e.Worker, Time: e.Time, Note: "transient"})
			tr.Mark(trace.Marker{Kind: trace.MarkRecover, Worker: e.Worker, Time: e.Until})
		}
	}

	linkFree := make([]float64, p.P())
	cpuFree := make([]float64, p.P())
	deadHere := make([]bool, p.P()) // worker already lost its schedule tail
	total := 0.0
	for idx, ch := range chunks {
		if ch.Worker < 0 || ch.Worker >= p.P() {
			return nil, fmt.Errorf("faults: chunk %d targets unknown worker %d", idx, ch.Worker)
		}
		if ch.Data < 0 || ch.Work < 0 {
			return nil, fmt.Errorf("faults: chunk %d has negative size", idx)
		}
		w := ch.Worker
		total += ch.Work
		if deadHere[w] {
			rep.LostWork += ch.Work
			rep.PerWorkerLost[w] += ch.Work
			continue
		}
		wk := p.Worker(w)
		recvStart := linkFree[w]
		d := 0.0
		if ch.Data > 0 {
			d = wk.CommTime(ch.Data) / tab.LinkScale(w, recvStart)
		}
		recvEnd := recvStart + d
		linkFree[w] = recvEnd
		if tab.Drop(w, recvStart) {
			// The chunk's data never arrives; single-round has no retry.
			tr.Add(w, trace.Span{Kind: trace.Comm, Start: recvStart, End: recvEnd, Data: ch.Data, Task: idx, Outcome: trace.Dropped})
			tr.Mark(trace.Marker{Kind: trace.MarkDrop, Worker: w, Time: recvEnd, Note: fmt.Sprintf("task %d", idx)})
			rep.LostWork += ch.Work
			rep.PerWorkerLost[w] += ch.Work
			rep.LostData += ch.Data
			continue
		}
		compStart := math.Max(recvEnd, cpuFree[w])
		compEnd := tab.IntegrateWork(p, w, compStart, ch.Work)
		// The chunk survives only if both its transfer and its computation
		// complete strictly before the worker's first crash.
		if recvEnd > crashAt[w] || compEnd > crashAt[w] || math.IsInf(compEnd, 1) {
			deadHere[w] = true
			if recvEnd > crashAt[w] {
				// The crash cut the transfer itself short.
				tr.Add(w, trace.Span{Kind: trace.Comm, Start: recvStart, End: math.Min(recvEnd, crashAt[w]), Data: ch.Data, Task: idx, Outcome: trace.Killed})
			} else {
				// Delivered in full, then the computation died. The whole
				// chunk's work is forfeit — single-round cannot re-assign.
				tr.Add(w, trace.Span{Kind: trace.Comm, Start: recvStart, End: recvEnd, Data: ch.Data, Task: idx, Outcome: trace.OK})
				killEnd := math.Min(compEnd, crashAt[w])
				if math.IsInf(killEnd, 1) {
					killEnd = compStart // frozen forever: no CPU time elapsed
				}
				tr.Add(w, trace.Span{Kind: trace.Compute, Start: compStart, End: killEnd, Work: ch.Work, Task: idx, Outcome: trace.Killed})
			}
			rep.LostWork += ch.Work
			rep.PerWorkerLost[w] += ch.Work
			rep.LostData += ch.Data
			continue
		}
		cpuFree[w] = compEnd
		tr.Add(w, trace.Span{Kind: trace.Comm, Start: recvStart, End: recvEnd, Data: ch.Data, Task: idx, Outcome: trace.OK})
		tr.Add(w, trace.Span{Kind: trace.Compute, Start: compStart, End: compEnd, Work: ch.Work, Task: idx, Outcome: trace.OK})
		rep.CompletedWork += ch.Work
		if compEnd > rep.Makespan {
			rep.Makespan = compEnd
		}
	}
	rep.Completed = rep.LostWork == 0
	if total > 0 {
		rep.LostFraction = rep.LostWork / total
	}
	return rep, nil
}

// LinearDLTChunks builds the classical single-round linear-DLT allocation
// for the platform: one chunk per worker, data and work proportional to
// its normalized speed — the static baseline that loses a dead worker's
// whole allocation. totalData and totalWork are split exactly.
func LinearDLTChunks(p *platform.Platform, totalData, totalWork float64) []dessim.Chunk {
	xs := p.NormalizedSpeeds()
	chunks := make([]dessim.Chunk, p.P())
	for i, x := range xs {
		chunks[i] = dessim.Chunk{Worker: i, Data: x * totalData, Work: x * totalWork}
	}
	return chunks
}
