package runtime

import (
	"fmt"
	"math"

	"nlfl/internal/faults"
	"nlfl/internal/partition"
	"nlfl/internal/trace"
)

// Chaos configures the fault-injection layer of the measured runtime: the
// same faults.Scenario timelines the DES simulators execute, compiled
// into the same faults.Table and realized on real goroutines (see
// DESIGN.md §10 for the kind-by-kind mapping), plus
// the survival machinery — per-chunk leases with reclamation, capped
// exponential backoff on transfer retry, speculative re-execution with
// first-writer-wins commit, and PERI-SUM re-planning of a dead worker's
// rectangles onto the survivors.
type Chaos struct {
	// Scenario is the fault timeline, in seconds on the run's clock.
	Scenario faults.Scenario
	// MaxRetries is the per-chunk-lineage recovery budget: how many times
	// a chunk's transfer may be re-attempted after a link drop, and how
	// many times a chunk's lineage may be reclaimed after crashes. A
	// chunk exceeding the budget fails the run with ErrTransferFailed
	// (drops) or ErrWorkerFailed (crashes); 0 means no budget at all.
	MaxRetries int
	// BackoffBase and BackoffMax bound the capped exponential backoff
	// between transfer retries, in seconds. Zero values select 1 ms and
	// 50 ms.
	BackoffBase float64
	BackoffMax  float64
	// SpeculateAfter, when positive, enables speculative re-execution: a
	// chunk a single worker has held for longer than this many seconds
	// may be issued to one additional worker; the first finished copy
	// commits, the other is recorded Wasted.
	SpeculateAfter float64
}

// Enabled reports whether the run needs the resilient execution path.
func (c Chaos) Enabled() bool { return len(c.Scenario.Events) > 0 || c.SpeculateAfter > 0 }

// Validate rejects malformed chaos options for a p-worker pool.
func (c Chaos) Validate(p int) error {
	if err := c.Scenario.Validate(p); err != nil {
		return err
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("runtime: negative retry budget %d", c.MaxRetries)
	}
	for _, v := range []struct {
		name  string
		value float64
	}{{"BackoffBase", c.BackoffBase}, {"BackoffMax", c.BackoffMax}, {"SpeculateAfter", c.SpeculateAfter}} {
		if v.value < 0 || math.IsNaN(v.value) || math.IsInf(v.value, 0) {
			return fmt.Errorf("runtime: invalid %s %v", v.name, v.value)
		}
	}
	return nil
}

// replanOwnedChunk maps a dead worker's owned rectangle onto the
// survivors: the same PERI-SUM construction PlanHet runs on the unit
// square is re-run on the survivor speeds, its rectangles are scaled
// into the lost chunk's bounds, and the coordinates are snapped with the
// consistent rounding rule of core.SnapRect (shared boundaries round
// identically), so the pieces tile the rectangle exactly; pieces snapped
// to zero cells vanish without leaving gaps. Survivor owners[Index] owns
// each piece. Falls back to re-issuing the whole rectangle ownerless
// when no survivor partition can be built. Replanned pieces carry
// Task −1; LeaseTable.Reclaim allocates fresh ids.
func replanOwnedChunk(c Chunk, owners []int, speeds []float64) []Chunk {
	c.Task = -1
	if len(owners) == 0 {
		c.Owner = -1
		return []Chunk{c}
	}
	part, err := partition.PeriSum(speeds)
	if err != nil {
		c.Owner = -1
		return []Chunk{c}
	}
	h := float64(c.RowHi - c.RowLo)
	wd := float64(c.ColHi - c.ColLo)
	var out []Chunk
	for _, rect := range part.Rects {
		pc := Chunk{
			Task:  -1,
			RowLo: c.RowLo + int(math.Round(rect.Y*h)),
			RowHi: c.RowLo + int(math.Round((rect.Y+rect.H)*h)),
			ColLo: c.ColLo + int(math.Round(rect.X*wd)),
			ColHi: c.ColLo + int(math.Round((rect.X+rect.W)*wd)),
			Owner: owners[rect.Index],
		}
		if pc.RowHi > c.RowHi {
			pc.RowHi = c.RowHi
		}
		if pc.ColHi > c.ColHi {
			pc.ColHi = c.ColHi
		}
		if pc.Cells() <= 0 {
			continue
		}
		out = append(out, pc)
	}
	if len(out) == 0 {
		c.Owner = -1
		return []Chunk{c}
	}
	return out
}

// chaosPoll is how often, in seconds, an idle worker re-polls the queue
// while uncommitted cells remain (waiting for a straggler to finish or a
// crash to free reclaimable work).
const chaosPoll = 500e-6

// Crashed takes worker w out of the pool at its crash instant: books the
// in-flight loss on its ledger, marks the timeline, reclaims everything
// it alone held (re-planning owned rectangles onto the survivors), and
// fails the run if a reclaimed chunk's retry budget is exhausted or
// nobody survives to pick the work up.
func (r *runner) Crashed(w int, inflight float64, killed trace.Span) {
	r.ledgers[w].wastedData += inflight
	if killed.Outcome == trace.Killed {
		r.live.Add(w, killed)
		r.ledgers[w].lostWork += killed.Work
	}
	r.live.Mark(trace.Marker{Kind: trace.MarkCrash, Worker: w, Time: r.clk.Now(), Note: "permanent"})
	cells, extra, over := r.lt.Reclaim(w, r.opts.Chaos.MaxRetries, r.lt.Replanner(r.opts.Speeds))
	r.mu.Lock()
	r.degraded++
	r.reclaimedCells += cells
	r.replanExtra += extra
	r.mu.Unlock()
	if over != nil {
		r.fail(fmt.Errorf("%w: worker %d crashed holding chunk %d with its retry budget exhausted", ErrWorkerFailed, w, over.Task))
		return
	}
	if r.lt.AllDead() {
		r.fail(fmt.Errorf("%w: all %d workers crashed before the run completed", ErrWorkerFailed, len(r.opts.Speeds)))
	}
}

// chaosWorker is the lease engine's worker loop: poll the lease table
// and run each leased chunk through the chunk step (ServeChunk) with the
// runner as its host. A crash instant that lands between chunks takes
// the worker out here; one that lands inside a chunk, in the step.
func (r *runner) chaosWorker(w int) {
	cw := &ChunkWorker{tb: r.throttle(w), nl: r.net,
		// Sized once from the plan's largest chunk; replanned pieces are
		// sub-rectangles of lost chunks, so the bound survives reclamation.
		a: make([]float64, 0, r.maxRowSpan), b: make([]float64, 0, r.maxColSpan)}
	crashAt := r.step.Faults.CrashAt(w)
	for r.ctx.Err() == nil {
		now := r.clk.Now()
		if now >= crashAt {
			if !r.lt.Dead(w) { // the step may have realized the crash already
				r.Crashed(w, 0, trace.Span{})
			}
			return
		}
		c, st := r.lt.Next(w, now)
		if st == LeaseDone {
			return
		}
		if st == LeaseWait {
			if !r.clk.SleepUntil(r.ctx, w, now+chaosPoll) {
				return
			}
			continue
		}
		if hook := r.opts.testHookChunkStart; hook != nil {
			hook(w, c)
		}
		if filled, ok := cw.ServeChunk(r.ctx, &r.step, c, 0); ok {
			r.live.Add(w, filled)
		}
	}
}

// Shipped books a transfer attempt on w's lock-free ledger.
func (r *runner) Shipped(w int, comm trace.Span, relays []trace.Relay) bool {
	RecordShipped(r.live, w, comm, relays)
	r.perData[w] += comm.Data
	if comm.Outcome == trace.Dropped {
		r.ledgers[w].retried++
		r.ledgers[w].wastedData += comm.Data
	}
	return true
}

// Exhausted fails the run with ErrTransferFailed.
func (r *runner) Exhausted(err error) { r.fail(fmt.Errorf("%w: %w", ErrTransferFailed, err)) }

// Commit resolves the race in the lease table and books the outcome on
// w's lock-free ledger.
func (r *runner) Commit(w int, c Chunk, compute trace.Span) bool {
	led := &r.ledgers[w]
	won, specWin := r.lt.Commit(c.Task, w)
	if !won {
		compute.Outcome = trace.Wasted
		r.live.Add(w, compute)
		led.wastedData += float64(c.Data())
		led.wastedWork += compute.Work
		return false
	}
	r.perCells[w] += compute.Work
	led.committed = append(led.committed, c)
	led.committedVolume += float64(c.Data())
	if specWin {
		led.specWins++
	}
	return true
}
