package runtime

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"nlfl/internal/faults"
	"nlfl/internal/matmul"
	"nlfl/internal/partition"
	"nlfl/internal/stats"
	"nlfl/internal/trace"
)

// Chaos configures the fault-injection layer of the measured runtime: the
// same faults.Scenario timelines the DES simulators execute, realized on
// real goroutines (see DESIGN.md §10 for the kind-by-kind mapping), plus
// the survival machinery — per-chunk leases with reclamation, capped
// exponential backoff on transfer retry, speculative re-execution with
// first-writer-wins commit, and PERI-SUM re-planning of a dead worker's
// rectangles onto the survivors.
type Chaos struct {
	// Scenario is the fault timeline, in live-run seconds from Run start.
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

// enabled reports whether the run needs the resilient execution path.
func (c Chaos) enabled() bool { return len(c.Scenario.Events) > 0 || c.SpeculateAfter > 0 }

// validate rejects malformed chaos options for a p-worker pool.
func (c Chaos) validate(p int) error {
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

// chaosWindow is one [start,end) fault window; factor holds the
// straggler/link multiplier or the drop probability, per kind.
type chaosWindow struct {
	start, end, factor float64
}

func (cw chaosWindow) covers(t float64) bool { return t >= cw.start && t < cw.end }

// chaosState is the scenario compiled into per-worker query tables. The
// deterministic parts (crash instants, slowdown and outage windows) are
// read-only after compile; the LinkDrop coin flips share one seeded RNG
// behind a mutex, so a run's flip *sequence* is reproducible even though
// which transfer consumes which flip depends on goroutine arrival order
// (see EXPERIMENTS.md on determinism).
type chaosState struct {
	crashAt []float64       // earliest Crash instant per worker (+Inf: none)
	slow    [][]chaosWindow // Straggler: compute-speed factors
	pause   [][]chaosWindow // Transient: full outages
	lslow   [][]chaosWindow // LinkSlow: bandwidth factors
	drop    [][]chaosWindow // LinkDrop: per-transfer loss probability

	mu  sync.Mutex
	rng *stats.RNG
}

func compileChaos(c Chaos, p int) *chaosState {
	cs := &chaosState{
		crashAt: make([]float64, p),
		slow:    make([][]chaosWindow, p),
		pause:   make([][]chaosWindow, p),
		lslow:   make([][]chaosWindow, p),
		drop:    make([][]chaosWindow, p),
		rng:     stats.NewRNG(c.Scenario.Seed),
	}
	for w := range cs.crashAt {
		cs.crashAt[w] = math.Inf(1)
	}
	for _, e := range c.Scenario.Events {
		switch e.Kind {
		case faults.Crash:
			if e.Time < cs.crashAt[e.Worker] {
				cs.crashAt[e.Worker] = e.Time
			}
		case faults.Transient:
			cs.pause[e.Worker] = append(cs.pause[e.Worker], chaosWindow{e.Time, e.Until, 0})
		case faults.Straggler:
			cs.slow[e.Worker] = append(cs.slow[e.Worker], chaosWindow{e.Time, e.Until, e.Factor})
		case faults.LinkSlow:
			cs.lslow[e.Worker] = append(cs.lslow[e.Worker], chaosWindow{e.Time, e.Until, e.Factor})
		case faults.LinkDrop:
			cs.drop[e.Worker] = append(cs.drop[e.Worker], chaosWindow{e.Time, e.Until, e.DropProb})
		}
	}
	return cs
}

// computeScale returns worker w's speed multiplier at instant t (the
// product of the straggler windows covering t). Sampled once per chunk:
// a window boundary crossing mid-chunk does not re-rate the chunk.
func (cs *chaosState) computeScale(w int, t float64) float64 {
	f := 1.0
	for _, win := range cs.slow[w] {
		if win.covers(t) {
			f *= win.factor
		}
	}
	return f
}

// pausedUntil reports whether worker w is inside a transient outage at t
// and, if so, when the latest covering outage ends.
func (cs *chaosState) pausedUntil(w int, t float64) (until float64, paused bool) {
	for _, win := range cs.pause[w] {
		if win.covers(t) && win.end > until {
			until, paused = win.end, true
		}
	}
	return until, paused
}

// linkScale is the masterLink.slowdown hook: the bandwidth multiplier
// for a transfer to worker w booked at instant t.
func (cs *chaosState) linkScale(w int, t float64) float64 {
	f := 1.0
	for _, win := range cs.lslow[w] {
		if win.covers(t) {
			f *= win.factor
		}
	}
	return f
}

// dropTransfer flips the seeded coin for a transfer to worker w starting
// at instant t; true means the payload is lost (each covering LinkDrop
// window flips independently).
func (cs *chaosState) dropTransfer(w int, t float64) bool {
	for _, win := range cs.drop[w] {
		if !win.covers(t) {
			continue
		}
		cs.mu.Lock()
		u := cs.rng.Float64()
		cs.mu.Unlock()
		if u < win.factor {
			return true
		}
	}
	return false
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
// Task −1; chaosQueue.reclaim allocates fresh ids.
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

// chaosPoll is how often an idle worker re-polls the queue while
// uncommitted cells remain (waiting for a straggler to finish or a
// crash to free reclaimable work).
const chaosPoll = 500 * time.Microsecond

// sleepCtx sleeps for d or until ctx is cancelled; false means cancelled.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// die takes worker w permanently out of the pool at its crash instant:
// marks the timeline, wastes the data shipped for whatever chunk died
// with it, reclaims everything it was solely responsible for back into
// the queue (re-planning owned rectangles onto the survivors), and fails
// the run if a reclaimed chunk's retry budget is exhausted or nobody
// survives to pick the work up.
func (r *runner) die(w int, cs *chaosState, cq *chaosQueue, inflightData float64) {
	r.live.Mark(trace.Marker{Kind: trace.MarkCrash, Worker: w, Time: r.live.Now(), Note: "permanent"})
	replan := func(c Chunk) []Chunk {
		if c.Owner < 0 {
			// Ownerless chunks keep their identity: any survivor may
			// claim them from the shared shards.
			return []Chunk{c}
		}
		var owners []int
		var speeds []float64
		for v, dead := range cq.dead { // safe: replan runs under cq.mu
			if !dead {
				owners = append(owners, v)
				speeds = append(speeds, r.opts.Speeds[v])
			}
		}
		return replanOwnedChunk(c, owners, speeds)
	}
	cells, extra, over := cq.reclaim(w, r.opts.Chaos.MaxRetries, replan)
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
	if cq.allDead() {
		r.fail(fmt.Errorf("%w: all %d workers crashed before the run completed", ErrWorkerFailed, len(cq.dead)))
	}
}

// chaosWorker is the resilient worker loop: poll the lease queue, ship
// with retry/backoff under link faults, stall through transient outages,
// compute at the (possibly straggler-scaled) throttled rate into a
// private scratch, and race for the first-writer-wins commit. Crash
// instants are honored at every blocking point; a dead worker's work is
// reclaimed by die.
func (r *runner) chaosWorker(w int, cs *chaosState, cq *chaosQueue) {
	bucket := newTokenBucket(r.opts.Speeds[w]*r.rate, r.opts.Burst)
	led := &r.ledgers[w]
	backoffBase := r.opts.Chaos.BackoffBase
	if backoffBase <= 0 {
		backoffBase = 1e-3
	}
	backoffMax := r.opts.Chaos.BackoffMax
	if backoffMax < backoffBase {
		backoffMax = math.Max(backoffBase, 50e-3)
	}
	// Sized once from the plan's largest chunk; replanned pieces are
	// sub-rectangles of lost chunks, so the bound survives reclamation.
	aBuf := make([]float64, 0, r.maxRowSpan)
	bBuf := make([]float64, 0, r.maxColSpan)
	scratch := make([]float64, 0, r.maxCells)

	for {
		if r.ctx.Err() != nil {
			return
		}
		now := r.live.Now()
		if now >= cs.crashAt[w] {
			r.die(w, cs, cq, 0)
			return
		}
		c, st := cq.next(w, now)
		if st == queueDone {
			return
		}
		if st == queueWait {
			if !sleepCtx(r.ctx, chaosPoll) {
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
			t0 := r.live.Now()
			if t0 >= cs.crashAt[w] {
				r.die(w, cs, cq, 0)
				return
			}
			dropped := cs.dropTransfer(w, t0)
			var t1 float64
			if r.net != nil && r.net.constrained(w) {
				del, relays := r.net.book(w, data)
				t0, t1 = del.start, del.end
				if !dropped {
					aBuf = append(aBuf[:0], r.a[c.RowLo:c.RowHi]...)
					bBuf = append(bBuf[:0], r.b[c.ColLo:c.ColHi]...)
				}
				if !r.net.wait(r.ctx, t1) {
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
				t1 = r.live.Now()
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
			if !sleepCtx(r.ctx, time.Duration(backoff*float64(time.Second))) {
				return
			}
			backoff = math.Min(backoff*2, backoffMax)
		}

		// Transient outage: the worker stalls (inputs survive, wall-clock
		// passes) until the window clears — unless its crash lands first.
		for {
			t := r.live.Now()
			if t >= cs.crashAt[w] {
				r.die(w, cs, cq, data)
				return
			}
			until, paused := cs.pausedUntil(w, t)
			if !paused {
				break
			}
			stall := math.Min(until, cs.crashAt[w]) - t
			if !sleepCtx(r.ctx, time.Duration(stall*float64(time.Second))) {
				return
			}
		}

		// Compute into a private scratch buffer. Speculative duplicates
		// run concurrently, so writing out.Data before winning the commit
		// race would be a data race even with identical values; only the
		// winner copies its scratch out. Straggler windows scale the
		// token cost (sampled at chunk start); the crash instant bounds
		// the token wait, realizing death mid-chunk.
		cells := float64(c.Cells())
		t0 := r.live.Now()
		scale := cs.computeScale(w, t0)
		budget := time.Duration(-1)
		if !math.IsInf(cs.crashAt[w], 1) {
			budget = time.Duration(math.Max(0, cs.crashAt[w]-t0) * float64(time.Second))
		}
		finished := bucket.acquireWithin(cells/scale, budget)
		if finished {
			if cap(scratch) < c.Cells() {
				scratch = make([]float64, c.Cells())
			}
			scratch = scratch[:c.Cells()]
			matmul.OuterFill(scratch, len(bBuf), aBuf, bBuf)
		}
		t1 := r.live.Now()
		if !finished || t1 >= cs.crashAt[w] {
			r.live.Add(w, trace.Span{Kind: trace.Compute, Start: t0, End: t1, Work: cells, Task: c.Task, Outcome: trace.Killed})
			r.noteLost(cells)
			r.die(w, cs, cq, data)
			return
		}
		won, specWin := cq.commit(c.Task, w)
		if !won {
			r.live.Add(w, trace.Span{Kind: trace.Compute, Start: t0, End: t1, Work: cells, Task: c.Task, Outcome: trace.Wasted})
			led.wastedData += data
			led.wastedWork += cells
			continue
		}
		commitChunk(r.out, scratch, c)
		r.live.Add(w, trace.Span{Kind: trace.Compute, Start: t0, End: t1, Work: cells, Task: c.Task})
		r.perCells[w] += cells
		led.committed = append(led.committed, c)
		led.committedVolume += data
		if specWin {
			led.specWins++
		}
	}
}

// commitChunk copies a winning scratch into the output. Exactly one copy
// of each task wins (chaosQueue.commit) and committed chunks never
// overlap (checkTiling audits the committed set after the run), so
// winners write disjoint cells and need no lock.
func commitChunk(out *matmul.Matrix, scratch []float64, c Chunk) {
	wd := c.ColHi - c.ColLo
	for i := 0; i < c.RowHi-c.RowLo; i++ {
		base := (c.RowLo+i)*out.Cols + c.ColLo
		copy(out.Data[base:base+wd], scratch[i*wd:(i+1)*wd])
	}
}
