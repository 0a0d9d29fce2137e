package runtime

import (
	"sort"
	"sync"
)

// lease is one chunk currently issued to at least one worker. Under
// faults a chunk can be in flight on several workers at once (the
// original holder plus a speculative copy); the lease tracks who holds
// it and since when, so the table can arbitrate first-writer-wins
// commits, reclaim a dead holder's work, and pick speculation victims.
// Holders are stored inline — a chunk is never issued to more than two
// workers (the holder plus one speculative copy) — and retired leases are
// recycled through the table's free list, so the steady-state lease churn
// allocates nothing.
type lease struct {
	c        Chunk
	holders  [2]int
	nholders int
	first    int     // worker the current lease generation was first issued to
	since    float64 // clock instant of that first issue
}

// LeaseState is LeaseTable.Next's verdict for a polling worker.
type LeaseState int

const (
	// LeaseGot: a chunk was leased to the caller.
	LeaseGot LeaseState = iota
	// LeaseWait: nothing to hand out right now, but uncommitted cells
	// remain — another holder may crash and its work be reclaimed, so
	// poll again.
	LeaseWait
	// LeaseDone: every cell of the domain is committed.
	LeaseDone
)

// LeaseTable is the demand-driven hand-out under faults, shared by
// Run's chaos path and every job of internal/service's fleet: a
// revocable lease per issued chunk, first-writer-wins commits,
// speculative re-issue of stale leases, and reclamation of a dead
// worker's work with PERI-SUM re-planning onto the survivors. The
// fault-free pool hands each chunk out once and forgets it (and never
// builds a LeaseTable at all). One mutex covers all bookkeeping — lease
// churn is per-chunk, not per-cell, so the lock is far off the compute
// path.
//
// The table wraps a workQueue: owned (het) chunks sit in their owner's
// lane, ownerless ones in the striped shards. Reclamation appends to
// both while their workers drain them, so every lane and shard access
// happens under the table's mutex.
type LeaseTable struct {
	mu        sync.Mutex
	q         *workQueue
	dead      []bool
	leases    map[int]*lease
	recovered map[int]int // task → times its lineage was reclaimed (retry ledger)
	cellsLeft int
	nextTask  int // id allocator for replanned pieces
	specAfter float64
	freeLease []*lease // retired lease records, reused by Next
}

// NewLeaseTable builds the table over chunks for `workers` workers, the
// ownerless ones striped over `shards` shards (one shard makes the
// ownerless pool a single FIFO). A chunk owned by a worker in
// [0, workers) is that worker's; any other is ownerless. specAfter is
// the speculation age threshold in seconds (≤ 0 disables speculative
// re-execution).
func NewLeaseTable(chunks []Chunk, workers, shards int, specAfter float64) *LeaseTable {
	t := &LeaseTable{
		q:         newWorkQueue(chunks, workers, shards),
		dead:      make([]bool, workers),
		leases:    map[int]*lease{},
		recovered: map[int]int{},
		specAfter: specAfter,
	}
	for _, c := range chunks {
		t.cellsLeft += c.Cells()
		if c.Task >= t.nextTask {
			t.nextTask = c.Task + 1
		}
	}
	return t
}

// Next leases worker w its next chunk at instant now: its own backlog
// first, then the shared shards (home stripe, then ring steal), then —
// with speculation enabled — the stalest chunk some other worker has
// held past the threshold (whether a lease was speculative is resolved
// at commit time from the lease's first holder). A dead worker gets
// nothing.
func (t *LeaseTable) Next(w int, now float64) (Chunk, LeaseState) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cellsLeft == 0 {
		return Chunk{}, LeaseDone
	}
	if t.dead[w] {
		return Chunk{}, LeaseWait
	}
	if c, ok := t.q.pop(w); ok {
		l := t.newLease()
		*l = lease{c: c, first: w, since: now}
		l.holders[0] = w
		l.nholders = 1
		t.leases[c.Task] = l
		return c, LeaseGot
	}
	if t.specAfter > 0 {
		var best *lease
		for _, l := range t.leases {
			if l.nholders != 1 || l.holders[0] == w {
				continue // already speculated, or our own chunk
			}
			if now-l.since < t.specAfter {
				continue
			}
			// Oldest lease first; tie-break on task id so map order
			// cannot influence the choice.
			if best == nil || l.since < best.since || (l.since == best.since && l.c.Task < best.c.Task) {
				best = l
			}
		}
		if best != nil {
			best.holders[best.nholders] = w
			best.nholders++
			return best.c, LeaseGot
		}
	}
	return Chunk{}, LeaseWait
}

func (t *LeaseTable) newLease() *lease {
	if k := len(t.freeLease); k > 0 {
		l := t.freeLease[k-1]
		t.freeLease = t.freeLease[:k-1]
		return l
	}
	return new(lease)
}

// retire removes a lease from the table and returns its record to the
// free list. Callers must hold t.mu and must not touch l afterwards.
func (t *LeaseTable) retire(task int, l *lease) {
	delete(t.leases, task)
	t.freeLease = append(t.freeLease, l)
}

// Commit resolves the first-writer-wins race for worker w's finished
// copy of task. won=false means the copy's work is Wasted: another copy
// already committed (its lease is retired), or w is dead — a worker
// marked dead while computing must not commit what Reclaim has already
// re-issued. specWin marks a win by a worker other than the lease's
// first holder — a successful speculation.
func (t *LeaseTable) Commit(task, w int) (won, specWin bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := t.leases[task]
	if l == nil || t.dead[w] {
		return false, false
	}
	specWin = l.first != w
	t.cellsLeft -= l.c.Cells()
	t.retire(task, l)
	return true, specWin
}

// Reclaim removes dead worker w from the pool and re-enqueues everything
// it was solely responsible for: the un-issued remainder of its owned
// backlog plus every lease it alone held. Each lost chunk is passed to
// replan (normally Replanner's), which maps it onto survivors; pieces
// destined for a live owner join that owner's backlog, the rest go
// ownerless to w's home shard stripe where ring stealing finds them.
// replan runs under t's mutex and must not call back into t.
//
// Returns the reclaimed cell count, the extra communication volume the
// re-plan added (Σ piece data − Σ lost data ≥ 0: a rectangle partition
// never ships less than its whole), and — when a chunk's lineage has
// been reclaimed more than maxRecover times — that chunk, signalling an
// exhausted retry budget.
func (t *LeaseTable) Reclaim(w int, maxRecover int, replan func(Chunk) []Chunk) (cells int, extra float64, overBudget *Chunk) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dead[w] = true
	lane := &t.q.lanes[w]
	lost := append([]Chunk(nil), lane.items[lane.head:]...)
	lane.head = len(lane.items)
	for task, l := range t.leases {
		keep := 0
		for _, h := range l.holders[:l.nholders] {
			if h != w {
				l.holders[keep] = h
				keep++
			}
		}
		l.nholders = keep
		if l.nholders == 0 {
			lost = append(lost, l.c)
			t.retire(task, l)
		}
	}
	// Map iteration order is random; sort so recovery is deterministic.
	sort.Slice(lost, func(i, j int) bool { return lost[i].Task < lost[j].Task })
	for _, c := range lost {
		gen := t.recovered[c.Task] + 1
		if gen > maxRecover {
			over := c
			return cells, extra, &over
		}
		cells += c.Cells()
		extra -= float64(c.Data())
		for _, pc := range replan(c) {
			if pc.Task < 0 {
				pc.Task = t.nextTask
				t.nextTask++
			}
			t.recovered[pc.Task] = gen
			extra += float64(pc.Data())
			if pc.Owner >= 0 && pc.Owner < len(t.dead) && !t.dead[pc.Owner] {
				t.q.lanes[pc.Owner].items = append(t.q.lanes[pc.Owner].items, pc)
			} else {
				pc.Owner = -1
				t.q.push(w, pc)
			}
		}
	}
	return cells, extra, nil
}

// Replanner returns the re-planner both executors pass to Reclaim, for
// workers of the given speeds: an ownerless chunk keeps its identity
// (any survivor may claim it from the shared shards), and an owned
// rectangle is re-cut over the surviving workers, ascending, by
// replanOwnedChunk. It reads the dead set, so it may only run inside
// Reclaim.
func (t *LeaseTable) Replanner(speeds []float64) func(Chunk) []Chunk {
	return func(c Chunk) []Chunk {
		if c.Owner < 0 {
			return []Chunk{c}
		}
		var owners []int
		var ss []float64
		for v, dead := range t.dead {
			if !dead {
				owners = append(owners, v)
				ss = append(ss, speeds[v])
			}
		}
		return replanOwnedChunk(c, owners, ss)
	}
}

// Dead reports whether worker w has been reclaimed.
func (t *LeaseTable) Dead(w int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dead[w]
}

// AllDead reports whether no worker survives.
func (t *LeaseTable) AllDead() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, d := range t.dead {
		if !d {
			return false
		}
	}
	return true
}

// CellsLeft returns the number of cells not yet committed.
func (t *LeaseTable) CellsLeft() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cellsLeft
}
