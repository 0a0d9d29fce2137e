package service

import (
	"context"
	"fmt"
	"time"

	nrt "nlfl/internal/runtime"
	"nlfl/internal/trace"
)

// workerPoll bounds how long an idle worker waits before rechecking the
// schedule; wake channels usually preempt it.
const workerPoll = 2 * time.Millisecond

// worker is one fleet worker's persistent loop: it lives as long as the
// fleet, owns its token bucket across every job it serves, and asks the
// scheduler for a chunk whenever it is idle, which it runs through the
// runtime's chunk step with the job as host and the job's start as epoch.
func (f *Fleet) worker(w int) {
	defer f.wg.Done()
	cw := nrt.NewChunkWorker(nrt.NewThrottle(f.clock, w, f.speeds[w]*f.rate, f.cfg.Burst), f.net)
	for f.ctx.Err() == nil {
		asg, ok := f.next(w)
		if !ok {
			if !sleepWake(f.ctx, f.wake[w], workerPoll) {
				return
			}
			continue
		}
		filled, ok := cw.ServeChunk(f.ctx, &asg.j.step, asg.c, asg.j.startAt)
		f.finishServe(asg.j, w, filled, ok)
	}
}

// finishServe settles one in-flight chunk: it records the Compute span
// of a chunk worker w committed and filled (ok), and when the last chunk
// drains and every cell is committed, the job completes — never earlier,
// so the step's fill outside the lock is safe. Terminal jobs (failed,
// cancelled, fleet-closed) were finalized eagerly and just drain; their
// timelines are frozen.
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

// The job is the chunk step's host: every consequence lands on its own
// ledgers and timeline under fleet.mu, and a terminal job's are frozen.
// Shipped books a transfer attempt; false once the job is terminal.
func (j *job) Shipped(w int, comm trace.Span, relays []trace.Relay) bool {
	j.f.mu.Lock()
	defer j.f.mu.Unlock()
	if j.terminal() {
		return false
	}
	nrt.RecordShipped(j.tl, w, comm, relays)
	j.dataShipped += comm.Data
	if comm.Outcome == trace.Dropped {
		j.wastedData += comm.Data
		j.retried++
	}
	return true
}

// Crashed books the in-flight loss — even when a scheduling step already
// marked w dead for j (housekeeping fires due crashes lazily), since
// only the serving worker knows what it shipped — and kills w for j.
func (j *job) Crashed(w int, inflight float64, killed trace.Span) {
	j.f.mu.Lock()
	defer j.f.mu.Unlock()
	if !j.terminal() {
		j.wastedData += inflight
		if killed.Outcome == trace.Killed {
			j.tl.Add(w, killed)
			j.lostWork += killed.Work
		}
	}
	j.f.jobDeathLocked(j, w)
}

// Exhausted fails the job with ErrJobFailed.
func (j *job) Exhausted(err error) {
	j.f.mu.Lock()
	defer j.f.mu.Unlock()
	j.f.finalizeLocked(j, fmt.Errorf("%w: %w", ErrJobFailed, err))
}

// Commit resolves the race in the job's lease table and books the
// outcome, crediting a win to the tenant's served cells.
func (j *job) Commit(w int, c nrt.Chunk, compute trace.Span) bool {
	j.f.mu.Lock()
	defer j.f.mu.Unlock()
	won, specWin := j.commit(w, c)
	if !won {
		if !j.terminal() {
			compute.Outcome = trace.Wasted
			j.tl.Add(w, compute)
			j.wastedData += float64(c.Data())
			j.wastedWork += compute.Work
		}
		return false
	}
	j.committedCells += compute.Work
	j.committedVol += float64(c.Data())
	if specWin {
		j.specWins++
	}
	j.f.ledgerLocked(j.tenant).ServedCells += compute.Work
	return true
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
