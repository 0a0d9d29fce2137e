package service

import (
	"fmt"
	"sort"

	nrt "nlfl/internal/runtime"
	"nlfl/internal/trace"
)

// assignment is one chunk of one job handed to a worker.
type assignment struct {
	j *job
	c nrt.Chunk
}

// next is the scheduling step: housekeeping (expired deadlines,
// cancellations, due chaos crashes), then the policy's job order, then
// the first job that has a chunk for worker w. Everything runs under
// fleet.mu; transfers and compute happen outside, in the chunk step.
func (f *Fleet) next(w int) (assignment, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	now := f.clock.Now()
	f.housekeepLocked(now)
	disc, _ := f.cfg.Policy.order()
	for _, j := range f.orderedLocked(disc, now) {
		if c, ok := j.lease(w, now); ok {
			if j.startAt < 0 {
				j.startAt = now
			}
			j.serving++
			return assignment{j: j, c: c}, true
		}
		if disc == dFIFO {
			// Head-of-line exclusivity: the oldest unfinished job owns the
			// fleet; nothing later is touched until it finishes.
			break
		}
	}
	return assignment{}, false
}

// housekeepLocked retires expired/cancelled jobs and fires due
// job-scoped crashes. Crashes fire lazily at scheduling steps, so a due
// crash takes effect at the next handout even if the doomed worker is
// busy elsewhere (its own chunk step honors the same instant).
func (f *Fleet) housekeepLocked(now float64) {
	for _, j := range append([]*job(nil), f.active...) {
		if j.terminal() {
			continue
		}
		if err := j.ctx.Err(); err != nil {
			f.finalizeLocked(j, fmt.Errorf("service: job %d (tenant %q): %w", j.id, j.tenant, err))
			continue
		}
		if !j.step.Chaos.Enabled() || j.startAt < 0 {
			continue
		}
		rel := now - j.startAt
		for _, w := range j.slice {
			if j.terminal() {
				break
			}
			if !j.deadFor(w) && rel >= j.step.Faults.CrashAt(w) {
				f.jobDeathLocked(j, w)
			}
		}
	}
}

// orderedLocked returns the active jobs in service order. FIFO keeps
// admission order. The other policies order first by the owning tenant's
// attained service (fair share: the tenant served least comes first, so
// one tenant's flood queues behind its own jobs, not everyone's), then
// by the policy key, then by id for determinism.
func (f *Fleet) orderedLocked(disc discipline, now float64) []*job {
	if disc == dFIFO || len(f.active) < 2 {
		return f.active
	}
	jobs := append([]*job(nil), f.active...)
	key := func(j *job) float64 {
		switch disc {
		case dSRPT:
			// Remaining work, aged down while waiting: small jobs overtake,
			// big ones cannot starve.
			return j.remainingCells() - f.cfg.AgingCellsPerSec*(now-j.submitAt)
		default: // dInterleaved
			// Least attained service, aged down over the job's lifetime.
			// Without the aging term a sustained arrival stream starves the
			// oldest jobs: every fresh job starts at attained 0 and outranks
			// a half-served one forever. Aging makes seniority win
			// eventually, bounding the tail while young jobs still
			// round-robin.
			return j.committedCells - f.cfg.AgingCellsPerSec*(now-j.submitAt)
		}
	}
	sort.SliceStable(jobs, func(a, b int) bool {
		ja, jb := jobs[a], jobs[b]
		if ta, tb := f.accounts[ja.tenant].ServedCells, f.accounts[jb.tenant].ServedCells; ta != tb {
			return ta < tb
		}
		if ka, kb := key(ja), key(jb); ka != kb {
			return ka < kb
		}
		return ja.id < jb.id
	})
	return jobs
}

// jobDeathLocked kills worker w *for job j only*: reclaims the un-issued
// remainder of its owned backlog and every lease it alone held,
// re-plans owned rectangles onto the job's surviving slice (the lease
// table a chaos Run uses), strikes the worker's health record, and
// fails the job if a chunk's retry budget is exhausted or no slice
// worker survives. The worker itself keeps serving every other job.
func (f *Fleet) jobDeathLocked(j *job, w int) {
	if j.terminal() || j.deadFor(w) {
		return
	}
	j.degraded++
	j.tl.Mark(trace.Marker{Kind: trace.MarkCrash, Worker: w, Time: f.clock.Now(), Note: "job-scoped"})
	f.strikeLocked(w)
	if over := j.reclaim(w); over != nil {
		f.finalizeLocked(j, fmt.Errorf("%w: worker %d crashed holding chunk %d with its retry budget exhausted", ErrJobFailed, w, over.Task))
		return
	}
	if j.leases.AllDead() {
		f.finalizeLocked(j, fmt.Errorf("%w: all %d workers of the job's slice crashed", ErrJobFailed, len(j.slice)))
		return
	}
	f.wakeAll()
}
