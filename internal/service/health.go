package service

const (
	// quarantineAfter is the strike budget: a worker that dies inside
	// quarantineAfter jobs is quarantined.
	quarantineAfter int = 2
	// probationJobs is the quarantine length, measured in fleet-wide
	// finished jobs; after it the worker is readmitted with a clean
	// record.
	probationJobs int = 8
)

// workerHealth tracks one fleet worker's reliability record
// (fleet.mu-guarded). A worker that keeps dying inside jobs — chaos
// crashes are attributed to the worker that carried them — accumulates
// strikes; at quarantineAfter strikes it is quarantined: excluded from
// every *new* job's slice (in-flight jobs keep their slice — mid-job
// re-slicing would break their plans). Quarantine ends after
// probationJobs fleet-wide job completions, and the record resets.
type workerHealth struct {
	strikes     int
	quarantined bool
	// releaseAt is the fleet.finishedJobs count at which a quarantined
	// worker is readmitted.
	releaseAt int
}

// strikeLocked records a death for worker w and quarantines it when the
// strike budget is spent. Returns true if this strike quarantined it.
func (f *Fleet) strikeLocked(w int) bool {
	h := &f.health[w]
	if h.quarantined {
		return false
	}
	h.strikes++
	if h.strikes >= quarantineAfter {
		h.quarantined = true
		h.releaseAt = f.finishedJobs + probationJobs
		return true
	}
	return false
}

// probationTickLocked runs at every job finish: quarantined workers
// whose probation has elapsed are readmitted with a clean record.
func (f *Fleet) probationTickLocked() {
	for w := range f.health {
		h := &f.health[w]
		if h.quarantined && f.finishedJobs >= h.releaseAt {
			h.quarantined = false
			h.strikes = 0
		}
	}
}

// WorkerState is one worker's health snapshot.
type WorkerState struct {
	Worker      int
	Speed       float64
	Strikes     int
	Quarantined bool
}

// Health returns a snapshot of every worker's record.
func (f *Fleet) Health() []WorkerState {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]WorkerState, len(f.health))
	for w := range f.health {
		out[w] = WorkerState{
			Worker:      w,
			Speed:       f.speeds[w],
			Strikes:     f.health[w].strikes,
			Quarantined: f.health[w].quarantined,
		}
	}
	return out
}
