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

// Backoff returns the retry backoff bounds with the defaults applied: a
// base of 1 ms when unset, and a cap of at least the base (50 ms when
// unset or below it).
func (c Chaos) Backoff() (base, max float64) {
	base, max = c.BackoffBase, c.BackoffMax
	if base <= 0 {
		base = 1e-3
	}
	if max < base {
		max = math.Max(base, 50e-3)
	}
	return base, max
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

// die takes worker w permanently out of the pool at its crash instant:
// marks the timeline, wastes the data shipped for whatever chunk died
// with it, reclaims everything it was solely responsible for back into
// the table (re-planning owned rectangles onto the survivors), and fails
// the run if a reclaimed chunk's retry budget is exhausted or nobody
// survives to pick the work up.
func (r *runner) die(w int, lt *LeaseTable, inflightData float64) {
	r.live.Mark(trace.Marker{Kind: trace.MarkCrash, Worker: w, Time: r.clk.Now(), Note: "permanent"})
	cells, extra, over := lt.Reclaim(w, r.opts.Chaos.MaxRetries, lt.Replanner(r.opts.Speeds))
	r.mu.Lock()
	r.degraded++
	r.reclaimedCells += cells
	r.replanExtra += extra
	r.wastedData += inflightData
	r.mu.Unlock()
	if over != nil {
		r.fail(fmt.Errorf("%w: worker %d crashed holding chunk %d with its retry budget exhausted", ErrWorkerFailed, w, over.Task))
		return
	}
	if lt.AllDead() {
		r.fail(fmt.Errorf("%w: all %d workers crashed before the run completed", ErrWorkerFailed, len(r.opts.Speeds)))
	}
}

// chaosWorker is the resilient worker loop: poll the lease table, ship
// with retry/backoff under link faults, stall through transient outages,
// pay the (possibly straggler-scaled) throttled compute, race for the
// first-writer-wins commit, and — only on a win — fill the output
// rectangle. Crash instants are honored at every blocking point; a dead
// worker's work is reclaimed by die.
func (r *runner) chaosWorker(w int, tab *faults.Table, lt *LeaseTable) {
	bucket := r.throttle(w)
	led := &r.ledgers[w]
	backoffBase, backoffMax := r.opts.Chaos.Backoff()
	crashAt := tab.CrashAt(w)
	// Sized once from the plan's largest chunk; replanned pieces are
	// sub-rectangles of lost chunks, so the bound survives reclamation.
	aBuf := make([]float64, 0, r.maxRowSpan)
	bBuf := make([]float64, 0, r.maxColSpan)

	for {
		if r.ctx.Err() != nil {
			return
		}
		now := r.clk.Now()
		if now >= crashAt {
			r.die(w, lt, 0)
			return
		}
		c, st := lt.Next(w, now)
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
		data := float64(c.Data())

		// Ship the chunk's inputs, retrying dropped transfers with capped
		// exponential backoff. A drop still occupies the booked link
		// window before the loss is noticed (the faults.LinkDrop
		// contract), so flaky links burn both volume and time.
		retries := 0
		backoff := backoffBase
		for {
			t0 := r.clk.Now()
			if t0 >= crashAt {
				r.die(w, lt, 0)
				return
			}
			dropped := tab.Drop(w, t0)
			var t1 float64
			if r.net != nil && r.net.constrained(w) {
				del, relays := r.net.book(w, data)
				t0, t1 = del.start, del.end
				if !dropped {
					aBuf = append(aBuf[:0], r.a[c.RowLo:c.RowHi]...)
					bBuf = append(bBuf[:0], r.b[c.ColLo:c.ColHi]...)
				}
				if !r.clk.SleepUntil(r.ctx, w, t1) {
					return
				}
				// Relays are recorded for dropped attempts too: the payload
				// crossed the intermediate hops and burned their bandwidth
				// before the loss was noticed at delivery.
				for _, h := range relays {
					r.live.AddRelay(trace.Relay{Edge: h.edge, Dest: w, Start: h.start, End: h.end,
						Data: data, Task: c.Task})
				}
			} else {
				if !dropped {
					aBuf = append(aBuf[:0], r.a[c.RowLo:c.RowHi]...)
					bBuf = append(bBuf[:0], r.b[c.ColLo:c.ColHi]...)
				}
				t1 = r.clk.Now()
			}
			if !dropped {
				r.live.Add(w, trace.Span{Kind: trace.Comm, Start: t0, End: t1, Data: data, Task: c.Task})
				r.perData[w] += data
				break
			}
			r.live.Add(w, trace.Span{Kind: trace.Comm, Start: t0, End: t1, Data: data, Task: c.Task, Outcome: trace.Dropped})
			r.live.Mark(trace.Marker{Kind: trace.MarkDrop, Worker: w, Time: t1, Note: fmt.Sprintf("task %d", c.Task)})
			r.perData[w] += data
			led.retried++
			led.wastedData += data
			retries++
			if retries > r.opts.Chaos.MaxRetries {
				r.fail(fmt.Errorf("%w: worker %d lost chunk %d on %d consecutive transfer attempts", ErrTransferFailed, w, c.Task, retries))
				return
			}
			if !r.clk.SleepUntil(r.ctx, w, r.clk.Now()+backoff) {
				return
			}
			backoff = math.Min(backoff*2, backoffMax)
		}

		// Transient outage: the worker stalls (inputs survive, the clock
		// passes) until the window clears — unless its crash lands first.
		for {
			t := r.clk.Now()
			if t >= crashAt {
				r.die(w, lt, data)
				return
			}
			until, paused := tab.PausedUntil(w, t)
			if !paused {
				break
			}
			if !r.clk.SleepUntil(r.ctx, w, math.Min(until, crashAt)) {
				return
			}
		}

		// Commit, then fill. The token wait is the modeled compute:
		// straggler windows scale its cost (sampled at chunk start) and
		// the crash instant bounds it, realizing death mid-chunk; a token
		// wait cut short by cancellation is no crash. The first-writer-wins
		// commit is resolved before any cell is written, so only the
		// winner fills, straight into the output; a losing speculative
		// copy never touches it. Exactly one copy of each task
		// wins and committed chunks never overlap (checkTiling audits the
		// committed set after the run), so winners write disjoint cells
		// and need no lock. A crash instant that falls inside the real
		// fill of a committed chunk takes effect at the next check: the
		// chunk stays committed.
		cells := float64(c.Cells())
		t0 := r.clk.Now()
		scale := tab.ComputeScale(w, t0)
		finished := bucket.acquireWithin(r.ctx, cells/scale, crashAt)
		if r.ctx.Err() != nil {
			return
		}
		t1 := r.clk.Now()
		if !finished || t1 >= crashAt {
			r.live.Add(w, trace.Span{Kind: trace.Compute, Start: t0, End: t1, Work: cells, Task: c.Task, Outcome: trace.Killed})
			r.noteLost(cells)
			r.die(w, lt, data)
			return
		}
		won, specWin := lt.Commit(c.Task, w)
		if !won {
			r.live.Add(w, trace.Span{Kind: trace.Compute, Start: t0, End: t1, Work: cells, Task: c.Task, Outcome: trace.Wasted})
			led.wastedData += data
			led.wastedWork += cells
			continue
		}
		r.perCells[w] += cells
		led.committed = append(led.committed, c)
		led.committedVolume += data
		if specWin {
			led.specWins++
		}
		FillChunk(r.out, aBuf, bBuf, c)
		r.live.Add(w, trace.Span{Kind: trace.Compute, Start: t0, End: r.clk.Now(), Work: cells, Task: c.Task})
	}
}
