package runtime

import (
	"context"
	"fmt"
	"math"

	"nlfl/internal/faults"
	"nlfl/internal/matmul"
	"nlfl/internal/trace"
)

// ChunkHost books the chunk step's consequences for the chunk's owner —
// a Run's runner or a fleet job — which decides only where they land.
type ChunkHost interface {
	// Shipped books one transfer attempt to worker w: its Comm span
	// (Dropped for a lost payload) and the relays it crossed, which a
	// dropped payload burned too. False abandons the chunk.
	Shipped(w int, comm trace.Span, relays []trace.Relay) bool
	// Crashed realizes w's crash while serving a chunk: inflight is the
	// data shipped for it, and killed — when its Outcome is trace.Killed
	// — the compute span the crash cut short.
	Crashed(w int, inflight float64, killed trace.Span)
	// Exhausted fails the owner: a transfer was dropped more often than
	// the retry budget allows.
	Exhausted(err error)
	// Commit resolves the first-writer-wins race for w's finished copy of
	// c. False means the copy lost and the host booked compute as Wasted.
	Commit(w int, c Chunk, compute trace.Span) bool
}

// timeline is what a ChunkHost books spans on: a run's trace.Live or a
// fleet job's trace.Timeline.
type timeline interface {
	Add(w int, s trace.Span)
	AddRelay(r trace.Relay)
	Mark(m trace.Marker)
}

// RecordShipped books a transfer attempt on tl: the relay windows, the
// Comm span and, for a dropped payload, the drop marker at delivery.
func RecordShipped(tl timeline, w int, comm trace.Span, relays []trace.Relay) {
	for _, h := range relays {
		tl.AddRelay(h)
	}
	tl.Add(w, comm)
	if comm.Outcome == trace.Dropped {
		tl.Mark(trace.Marker{Kind: trace.MarkDrop, Worker: w, Time: comm.End, Note: fmt.Sprintf("task %d", comm.Task)})
	}
}

// ChunkJob is what the chunk step reads of a run or fleet job. Faults is
// never nil (a clean job carries an empty table), Chaos supplies the
// retry budget and backoff bounds, and only commit winners fill Out.
type ChunkJob struct {
	A, B   []float64
	Out    *matmul.Matrix
	Faults *faults.Table
	Chaos  Chaos
	Host   ChunkHost
}

// ChunkWorker is one worker's side of the chunk step: its token bucket
// (which carries its index and clock), its network and its reusable
// staging buffers. It belongs to one goroutine.
type ChunkWorker struct {
	tb     *tokenBucket
	nl     *netLink
	a, b   []float64
	relays []trace.Relay
}

// NewChunkWorker builds the step state of th's worker, shipping over net.
func NewChunkWorker(th *Throttle, net *Network) *ChunkWorker {
	return &ChunkWorker{tb: th.tb, nl: net.nl}
}

// ServeChunk runs leased chunk c end to end — the one per-chunk step of
// the lease engine and the fleet: ship the inputs (retrying drops with
// capped exponential backoff), stall through transient outages, pay the
// straggler-scaled throttled compute bounded by the crash instant, race
// for the first-writer-wins commit and — only on a win — fill job.Out.
// Fault instants are relative to epoch, the clock instant the job
// started (0 for a Run). It returns the filled chunk's Compute span for
// the caller to record (ok); every other consequence goes to job.Host.
// A wait cut short by ctx is no fault and is booked nowhere.
func (cw *ChunkWorker) ServeChunk(ctx context.Context, job *ChunkJob, c Chunk, epoch float64) (filled trace.Span, ok bool) {
	w, clk, tab, host := cw.tb.w, cw.tb.clk, job.Faults, job.Host
	crashAt := tab.CrashAt(w)
	data, cells := float64(c.Data()), float64(c.Cells())
	backoff, backoffMax := job.Chaos.BackoffBase, job.Chaos.BackoffMax
	if backoff <= 0 {
		backoff = 1e-3
	}
	if backoffMax < backoff { // the cap is at least the base
		backoffMax = math.Max(backoff, 50e-3)
	}

	// A drop still occupies the booked link window before the loss is
	// noticed (the faults.LinkDrop contract), so flaky links burn both
	// volume and time.
	for retries := 0; ; {
		t0 := clk.Now()
		if t0-epoch >= crashAt {
			host.Crashed(w, 0, trace.Span{})
			return trace.Span{}, false
		}
		dropped := tab.Drop(w, t0-epoch)
		var t1 float64
		cw.relays = cw.relays[:0]
		booked := cw.nl != nil && cw.nl.constrained(w)
		if booked {
			del, relays := cw.nl.book(w, data)
			t0, t1 = del.start, del.end
			for _, h := range relays {
				cw.relays = append(cw.relays, trace.Relay{Edge: h.edge, Dest: w, Start: h.start, End: h.end, Data: data, Task: c.Task})
			}
		}
		if !dropped {
			cw.a = append(cw.a[:0], job.A[c.RowLo:c.RowHi]...)
			cw.b = append(cw.b[:0], job.B[c.ColLo:c.ColHi]...)
		}
		if !booked {
			t1 = clk.Now()
		} else if !clk.SleepUntil(ctx, w, t1) {
			return trace.Span{}, false
		}
		comm := trace.Span{Kind: trace.Comm, Start: t0, End: t1, Data: data, Task: c.Task}
		if dropped {
			comm.Outcome = trace.Dropped
		}
		if !host.Shipped(w, comm, cw.relays) {
			return trace.Span{}, false
		}
		if !dropped {
			break
		}
		if retries++; retries > job.Chaos.MaxRetries {
			host.Exhausted(fmt.Errorf("worker %d lost chunk %d on %d consecutive transfer attempts", w, c.Task, retries))
			return trace.Span{}, false
		}
		if !clk.SleepUntil(ctx, w, clk.Now()+backoff) {
			return trace.Span{}, false
		}
		backoff = math.Min(backoff*2, backoffMax)
	}

	// Transient outage: the inputs survive and the clock passes until the
	// window clears — unless the crash lands first.
	for {
		t := clk.Now() - epoch
		if t >= crashAt {
			host.Crashed(w, data, trace.Span{})
			return trace.Span{}, false
		}
		until, paused := tab.PausedUntil(w, t)
		if !paused {
			break
		}
		if !clk.SleepUntil(ctx, w, epoch+math.Min(until, crashAt)) {
			return trace.Span{}, false
		}
	}

	// The token wait is the modeled compute: a straggler window scales its
	// cost (sampled at chunk start) and the crash instant bounds it. Only
	// the commit winner fills, and committed chunks never overlap, so it
	// writes job.Out without a lock. A crash inside the fill takes effect
	// at the next check.
	t0 := clk.Now()
	finished := cw.tb.acquireWithin(ctx, cells/tab.ComputeScale(w, t0-epoch), epoch+crashAt)
	if ctx.Err() != nil {
		return trace.Span{}, false
	}
	compute := trace.Span{Kind: trace.Compute, Start: t0, End: clk.Now(), Work: cells, Task: c.Task}
	if !finished || compute.End-epoch >= crashAt {
		compute.Outcome = trace.Killed
		host.Crashed(w, data, compute)
		return trace.Span{}, false
	}
	if !host.Commit(w, c, compute) {
		return trace.Span{}, false
	}
	FillChunk(job.Out, cw.a, cw.b, c)
	compute.End = clk.Now()
	return compute, true
}
