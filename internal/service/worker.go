package service

import (
	"context"
	"fmt"
	"math"
	"time"

	nrt "nlfl/internal/runtime"
	"nlfl/internal/trace"
)

// workerPoll bounds how long an idle worker waits before rechecking the
// schedule; wake channels usually preempt it.
const workerPoll = 2 * time.Millisecond

// worker is one fleet worker's persistent loop: it lives as long as the
// fleet, owns its token bucket across every job it serves, and asks the
// scheduler for a chunk whenever it is idle.
func (f *Fleet) worker(w int) {
	defer f.wg.Done()
	th := nrt.NewThrottle(f.clock, w, f.speeds[w]*f.rate, f.cfg.Burst)
	bufs := &serveBufs{}
	for {
		if f.ctx.Err() != nil {
			return
		}
		asg, ok := f.next(w)
		if !ok {
			if !sleepWake(f.ctx, f.wake[w], workerPoll) {
				return
			}
			continue
		}
		filled, ok := f.serve(w, asg.j, asg.c, th, bufs)
		f.finishServe(asg.j, w, filled, ok)
	}
}

// finishServe settles one in-flight chunk: it records the Compute span
// of a chunk worker w committed and filled (ok), and when the last chunk
// drains and every cell is committed, the job completes. Terminal jobs
// (failed, cancelled, fleet-closed) were finalized eagerly and just
// drain; their timelines are frozen.
func (f *Fleet) finishServe(j *job, w int, filled trace.Span, ok bool) {
	f.mu.Lock()
	if ok && !j.terminal() {
		j.tl.Add(w, filled)
	}
	j.serving--
	if !j.terminal() && j.serving == 0 && j.leases.CellsLeft() == 0 {
		f.finalizeLocked(j, nil)
	}
	f.mu.Unlock()
}

// serveBufs are one worker's reusable staging buffers.
type serveBufs struct {
	a, b []float64
}

// serve runs one leased chunk end to end: ship the inputs over the
// shared link (retrying job-scoped drops with capped backoff), stall
// through job-scoped transient outages, pay the throttled (possibly
// straggler-scaled) compute with the job-scoped crash instant bounding
// the token wait, race for the first-writer-wins commit, and — only on
// a win — fill the output rectangle. It returns the filled chunk's
// Compute span for finishServe to record (ok), and nothing otherwise.
// Every fault consequence lands on job j's ledgers alone; a wait cut
// short by the fleet's shutdown is no fault and lands nowhere.
func (f *Fleet) serve(w int, j *job, c nrt.Chunk, th *nrt.Throttle, bufs *serveBufs) (filled trace.Span, ok bool) {
	data := float64(c.Data())
	cells := float64(c.Cells())
	crashAt := math.Inf(1)
	if j.chaos != nil {
		crashAt = j.chaos.CrashAt(w)
	}

	// Ship, retrying dropped transfers. A drop still occupies the booked
	// window before the loss is noticed (the faults.LinkDrop contract).
	retries := 0
	backoff := j.backoff[0]
	for {
		t0 := f.clock.Now()
		rel := t0 - j.startAt
		if rel >= crashAt {
			f.killServing(j, w, c, 0, 0, 0, false)
			return trace.Span{}, false
		}
		dropped := j.chaos != nil && j.chaos.Drop(w, rel)
		var t1 float64
		var relays []nrt.Window
		if f.net.Constrained(w) {
			var del nrt.Window
			del, relays = f.net.Book(w, data)
			t0, t1 = del.Start, del.End
			if !dropped {
				bufs.a = append(bufs.a[:0], j.a[c.RowLo:c.RowHi]...)
				bufs.b = append(bufs.b[:0], j.b[c.ColLo:c.ColHi]...)
			}
			if !f.clock.SleepUntil(f.ctx, w, t1) {
				return trace.Span{}, false // fleet shutdown mid-transfer
			}
		} else {
			if !dropped {
				bufs.a = append(bufs.a[:0], j.a[c.RowLo:c.RowHi]...)
				bufs.b = append(bufs.b[:0], j.b[c.ColLo:c.ColHi]...)
			}
			t1 = f.clock.Now()
		}
		f.mu.Lock()
		if j.terminal() {
			f.mu.Unlock()
			return trace.Span{}, false
		}
		outcome := trace.OK
		if dropped {
			outcome = trace.Dropped
		}
		// Intermediate hops are recorded for dropped attempts too: the
		// payload crossed them before the loss was noticed at delivery.
		for _, h := range relays {
			j.tl.AddRelay(trace.Relay{Edge: h.Edge, Dest: w, Start: h.Start, End: h.End, Data: data, Task: c.Task})
		}
		j.tl.Add(w, trace.Span{Kind: trace.Comm, Start: t0, End: t1, Data: data, Task: c.Task, Outcome: outcome})
		j.dataShipped += data
		if dropped {
			j.wastedData += data
			j.retried++
			j.tl.Mark(trace.Marker{Kind: trace.MarkDrop, Worker: w, Time: t1, Note: fmt.Sprintf("task %d", c.Task)})
		}
		f.mu.Unlock()
		if !dropped {
			break
		}
		retries++
		if retries > j.maxRetries {
			f.mu.Lock()
			f.finalizeLocked(j, fmt.Errorf("%w: worker %d lost chunk %d on %d consecutive transfer attempts", ErrJobFailed, w, c.Task, retries))
			f.mu.Unlock()
			return trace.Span{}, false
		}
		if !f.clock.SleepUntil(f.ctx, w, f.clock.Now()+backoff) {
			return trace.Span{}, false
		}
		backoff = math.Min(backoff*2, j.backoff[1])
	}

	// Job-scoped transient outage: stall until the window clears, unless
	// the crash instant lands first.
	if j.chaos != nil {
		for {
			rel := f.clock.Now() - j.startAt
			if rel >= crashAt {
				f.killServing(j, w, c, data, 0, 0, false)
				return trace.Span{}, false
			}
			until, paused := j.chaos.PausedUntil(w, rel)
			if !paused {
				break
			}
			if !f.clock.SleepUntil(f.ctx, w, j.startAt+math.Min(until, crashAt)) {
				return trace.Span{}, false
			}
		}
	}

	// Commit, then fill: the token wait is the modeled compute, and the
	// first-writer-wins race is resolved before any cell is written, so
	// a losing speculative copy never touches j.out.
	t0 := f.clock.Now()
	scale := 1.0
	if j.chaos != nil {
		scale = j.chaos.ComputeScale(w, t0-j.startAt)
	}
	finished := th.AcquireWithin(f.ctx, cells/scale, j.startAt+crashAt)
	if f.ctx.Err() != nil {
		return trace.Span{}, false // fleet shutdown mid-compute
	}
	t1 := f.clock.Now()
	if !finished || t1-j.startAt >= crashAt {
		f.killServing(j, w, c, data, t0, t1, true)
		return trace.Span{}, false
	}

	f.mu.Lock()
	won, specWin := j.commit(w, c)
	if !won {
		if !j.terminal() {
			j.tl.Add(w, trace.Span{Kind: trace.Compute, Start: t0, End: t1, Work: cells, Task: c.Task, Outcome: trace.Wasted})
			j.wastedData += data
			j.wastedWork += cells
		}
		f.mu.Unlock()
		return trace.Span{}, false
	}
	j.committedCells += cells
	j.committedVol += data
	if specWin {
		j.specWins++
	}
	f.ledgerLocked(j.tenant).ServedCells += cells
	f.mu.Unlock()
	// Only the winner fills, straight into j.out and outside the lock:
	// committed chunks are disjoint, and the job cannot complete (verify
	// or hand out j.out) until finishServe drains this chunk. A crash
	// instant inside the fill takes effect at the worker's next check.
	nrt.FillChunk(j.out, bufs.a, bufs.b, c)
	return trace.Span{Kind: trace.Compute, Start: t0, End: f.clock.Now(), Work: cells, Task: c.Task}, true
}

// killServing realizes worker w's job-scoped crash while it was serving
// chunk c: the shipped data is wasted, a Killed compute span over [t0,
// t1] records the destroyed work when the crash landed mid-compute, and
// jobDeathLocked reclaims everything w held for j.
func (f *Fleet) killServing(j *job, w int, c nrt.Chunk, inflightData, t0, t1 float64, midCompute bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	// Account the in-flight loss even if a scheduling step already marked
	// w dead for j (housekeeping fires due crashes lazily): only this
	// goroutine knows what was shipped for the chunk that died with it.
	if !j.terminal() {
		j.wastedData += inflightData
		if midCompute {
			cells := float64(c.Cells())
			j.tl.Add(w, trace.Span{Kind: trace.Compute, Start: t0, End: t1, Work: cells, Task: c.Task, Outcome: trace.Killed})
			j.lostWork += cells
		}
	}
	f.jobDeathLocked(j, w)
}

// sleepWake waits for a wake signal, the poll tick, or shutdown; false
// means the fleet is closing.
func sleepWake(ctx context.Context, wake <-chan struct{}, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-wake:
		return true
	case <-t.C:
		return true
	}
}
