package service

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"nlfl/internal/partition"
	nrt "nlfl/internal/runtime"
)

// refLease, refJob and the ref* functions below are the fleet's own
// lease table as it stood before jobs shared runtime.LeaseTable:
// takeLocked, commitLocked and jobDeathLocked's reclaim loop, with
// their job fields, fleet-worker-indexed. They are kept verbatim apart
// from the Fleet plumbing (the crash marker, health strike and
// finalisation become a terminal flag and an error string), as the
// reference TestJobLeasesMatchReference holds the shared table to.
type refLease struct {
	c       nrt.Chunk
	holders []int
	first   int
	since   float64
}

type refJob struct {
	slice      []int
	inSlice    []bool
	speeds     []float64 // fleet-indexed
	specAfter  float64
	maxRetries int

	backlog   [][]nrt.Chunk
	bhead     []int
	shared    []nrt.Chunk
	shead     int
	leases    map[int]*refLease
	committed map[int]bool
	recovered map[int]int
	nextTask  int
	cellsLeft int
	deadFor   []bool
	aliveLeft int

	replanExtra    float64
	reclaimedCells int
	degraded       int
	terminal       bool
	err            string
}

func newRefJob(slice []int, speeds []float64, chunks []nrt.Chunk, specAfter float64, maxRetries int) *refJob {
	fleetP := len(speeds)
	j := &refJob{
		slice:      slice,
		inSlice:    make([]bool, fleetP),
		speeds:     speeds,
		specAfter:  specAfter,
		maxRetries: maxRetries,
		backlog:    make([][]nrt.Chunk, fleetP),
		bhead:      make([]int, fleetP),
		leases:     map[int]*refLease{},
		committed:  map[int]bool{},
		recovered:  map[int]int{},
		deadFor:    make([]bool, fleetP),
		aliveLeft:  len(slice),
	}
	for _, w := range slice {
		j.inSlice[w] = true
	}
	for _, c := range chunks {
		j.cellsLeft += c.Cells()
		if c.Task >= j.nextTask {
			j.nextTask = c.Task + 1
		}
		if c.Owner >= 0 && c.Owner < len(slice) {
			c.Owner = slice[c.Owner]
			j.backlog[c.Owner] = append(j.backlog[c.Owner], c)
		} else {
			c.Owner = -1
			j.shared = append(j.shared, c)
		}
	}
	return j
}

// refTake is Fleet.next's per-job guard plus takeLocked.
func refTake(j *refJob, w int, now float64) (nrt.Chunk, bool) {
	if !j.inSlice[w] || j.deadFor[w] {
		return nrt.Chunk{}, false
	}
	if j.cellsLeft == 0 {
		return nrt.Chunk{}, false
	}
	if j.bhead[w] < len(j.backlog[w]) {
		c := j.backlog[w][j.bhead[w]]
		j.bhead[w]++
		j.leases[c.Task] = &refLease{c: c, holders: []int{w}, first: w, since: now}
		return c, true
	}
	if j.shead < len(j.shared) {
		c := j.shared[j.shead]
		j.shead++
		j.leases[c.Task] = &refLease{c: c, holders: []int{w}, first: w, since: now}
		return c, true
	}
	if j.specAfter > 0 {
		var best *refLease
		for _, l := range j.leases {
			if len(l.holders) != 1 || l.holders[0] == w {
				continue
			}
			if now-l.since < j.specAfter {
				continue
			}
			if best == nil || l.since < best.since || (l.since == best.since && l.c.Task < best.c.Task) {
				best = l
			}
		}
		if best != nil {
			best.holders = append(best.holders, w)
			return best.c, true
		}
	}
	return nrt.Chunk{}, false
}

// refCommit is commitLocked.
func refCommit(j *refJob, w int, c nrt.Chunk) (won, specWin bool) {
	if j.terminal || j.deadFor[w] || j.committed[c.Task] {
		return false, false
	}
	l := j.leases[c.Task]
	if l == nil {
		return false, false
	}
	j.committed[c.Task] = true
	delete(j.leases, c.Task)
	j.cellsLeft -= c.Cells()
	return true, l.first != w
}

// refDeath is jobDeathLocked.
func refDeath(j *refJob, w int) {
	if j.terminal || j.deadFor[w] {
		return
	}
	j.deadFor[w] = true
	j.aliveLeft--
	j.degraded++

	lost := append([]nrt.Chunk(nil), j.backlog[w][j.bhead[w]:]...)
	j.bhead[w] = len(j.backlog[w])
	for task, l := range j.leases {
		keep := l.holders[:0]
		for _, h := range l.holders {
			if h != w {
				keep = append(keep, h)
			}
		}
		l.holders = keep
		if len(l.holders) == 0 {
			delete(j.leases, task)
			lost = append(lost, l.c)
		}
	}
	sort.Slice(lost, func(a, b int) bool { return lost[a].Task < lost[b].Task })

	var owners []int
	var speeds []float64
	for _, v := range j.slice {
		if !j.deadFor[v] {
			owners = append(owners, v)
			speeds = append(speeds, j.speeds[v])
		}
	}
	for _, c := range lost {
		gen := j.recovered[c.Task] + 1
		if gen > j.maxRetries {
			j.terminal = true
			j.err = fmt.Errorf("%w: worker %d crashed holding chunk %d with its retry budget exhausted", ErrJobFailed, w, c.Task).Error()
			return
		}
		j.reclaimedCells += c.Cells()
		j.replanExtra -= float64(c.Data())
		var pieces []nrt.Chunk
		if c.Owner < 0 {
			pieces = []nrt.Chunk{c}
		} else {
			pieces = refReplanOwned(c, owners, speeds)
		}
		for _, pc := range pieces {
			if pc.Task < 0 {
				pc.Task = j.nextTask
				j.nextTask++
			}
			j.recovered[pc.Task] = gen
			j.replanExtra += float64(pc.Data())
			if pc.Owner >= 0 && pc.Owner < len(j.inSlice) && j.inSlice[pc.Owner] && !j.deadFor[pc.Owner] && pc.Owner != w {
				j.backlog[pc.Owner] = append(j.backlog[pc.Owner], pc)
			} else {
				pc.Owner = -1
				j.shared = append(j.shared, pc)
			}
		}
	}
	if j.aliveLeft == 0 {
		j.terminal = true
		j.err = fmt.Errorf("%w: all %d workers of the job's slice crashed", ErrJobFailed, len(j.slice)).Error()
	}
}

// refReplanOwned is the PERI-SUM survivor re-plan the fleet called
// through runtime.ReplanOwned.
func refReplanOwned(c nrt.Chunk, owners []int, speeds []float64) []nrt.Chunk {
	c.Task = -1
	if len(owners) == 0 {
		c.Owner = -1
		return []nrt.Chunk{c}
	}
	part, err := partition.PeriSum(speeds)
	if err != nil {
		c.Owner = -1
		return []nrt.Chunk{c}
	}
	h := float64(c.RowHi - c.RowLo)
	wd := float64(c.ColHi - c.ColLo)
	var out []nrt.Chunk
	for _, rect := range part.Rects {
		pc := nrt.Chunk{
			Task:  -1,
			RowLo: c.RowLo + int(math.Round(rect.Y*h)),
			RowHi: c.RowLo + int(math.Round((rect.Y+rect.H)*h)),
			ColLo: c.ColLo + int(math.Round(rect.X*wd)),
			ColHi: c.ColLo + int(math.Round((rect.X+rect.W)*wd)),
			Owner: owners[rect.Index],
		}
		pc.RowHi = min(pc.RowHi, c.RowHi)
		pc.ColHi = min(pc.ColHi, c.ColHi)
		if pc.Cells() <= 0 {
			continue
		}
		out = append(out, pc)
	}
	if len(out) == 0 {
		c.Owner = -1
		return []nrt.Chunk{c}
	}
	return out
}

// TestJobLeasesMatchReference drives a fleet job's lease table (built by
// buildJobLocked, served through job.lease/job.commit and
// Fleet.jobDeathLocked) and the reference copy through the same seeded
// scripts of hand-outs, commits and job-scoped crashes — owned (het, wf)
// and ownerless (hom, hom/k) plans over random slices, speculation on
// and off, retry budgets of 0–2, clock steps that make speculation ties
// common — and requires every hand-out, commit verdict, reclaim ledger
// and failure to be identical.
func TestJobLeasesMatchReference(t *testing.T) {
	const scripts = 400
	var handouts, specWins, reclaims, replanned, overBudget, allDead, done int
	for seed := int64(0); seed < scripts; seed++ {
		s := runLeaseScript(t, seed)
		handouts += s.handouts
		specWins += s.specWins
		reclaims += s.reclaims
		replanned += s.replanned
		overBudget += s.overBudget
		allDead += s.allDead
		done += s.done
		if t.Failed() {
			return
		}
	}
	t.Logf("%d scripts: %d hand-outs, %d speculative wins, %d crashes (%d re-planned owned work), %d exhausted budgets, %d whole-slice deaths, %d completed",
		scripts, handouts, specWins, reclaims, replanned, overBudget, allDead, done)
	// The scripts must reach every branch the two tables could disagree on.
	for name, n := range map[string]int{"hand-out": handouts, "speculative win": specWins,
		"reclaim": reclaims, "owned re-plan": replanned, "exhausted budget": overBudget,
		"whole slice dead": allDead, "completed job": done} {
		if n == 0 {
			t.Errorf("no script reached a %s", name)
		}
	}
}

type leaseScriptStats struct {
	handouts, specWins, reclaims, replanned, overBudget, allDead, done int
}

func runLeaseScript(t *testing.T, seed int64) (st leaseScriptStats) {
	rng := rand.New(rand.NewSource(seed))
	fleetP := 3 + rng.Intn(4)
	speeds := make([]float64, fleetP)
	for i := range speeds {
		speeds[i] = float64(1 + rng.Intn(4))
	}
	f, err := New(Config{Speeds: speeds})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var slice []int
	for w := 0; w < fleetP; w++ {
		if rng.Intn(3) > 0 {
			slice = append(slice, w)
		}
	}
	if len(slice) == 0 {
		slice = []int{rng.Intn(fleetP)}
	}
	spec := JobSpec{
		Tenant:   "ref",
		N:        12 + rng.Intn(30),
		Strategy: []string{"hom", "hom/k", "het", "wf"}[rng.Intn(4)],
		Chaos:    ChaosSpec{MaxRetries: rng.Intn(3)},
	}
	if rng.Intn(2) == 0 {
		spec.Chaos.SpeculateAfter = float64(1 + rng.Intn(3))
	}
	if spec.Strategy == "wf" {
		for range slice {
			spec.Weights = append(spec.Weights, float64(1+rng.Intn(5)))
		}
	}
	spec = spec.withDefaults()

	f.mu.Lock()
	defer f.mu.Unlock()
	j, err := f.buildJobLocked(spec, slice)
	if err != nil {
		return st // a plan that collapses on the grid; nothing to compare
	}
	ref := newRefJob(slice, speeds, j.plan.Chunks, spec.Chaos.SpeculateAfter, spec.Chaos.MaxRetries)

	type held struct {
		w int
		c nrt.Chunk
	}
	var inflight []held
	now := 0.0
	for step := 0; step < 600 && !ref.terminal && ref.cellsLeft > 0; step++ {
		now += []float64{0, 0, 1, 2}[rng.Intn(4)]
		fail := func(format string, args ...any) {
			t.Errorf("seed %d step %d (%s over %v, slice %v): %s", seed, step, spec.Strategy, speeds, slice, fmt.Sprintf(format, args...))
		}
		switch op := rng.Intn(20); {
		case op < 11: // hand-out, to any fleet worker
			w := rng.Intn(fleetP)
			want, wok := refTake(ref, w, now)
			got, gok := j.lease(w, now)
			if gok && got.Owner >= 0 {
				got.Owner = slice[got.Owner]
			}
			if got != want || gok != wok {
				fail("worker %d handed (%+v, %v), reference (%+v, %v)", w, got, gok, want, wok)
				return st
			}
			if wok {
				st.handouts++
				inflight = append(inflight, held{w, want})
			}
		case op < 18: // commit one in-flight copy
			if len(inflight) == 0 {
				continue
			}
			k := rng.Intn(len(inflight))
			h := inflight[k]
			inflight = append(inflight[:k], inflight[k+1:]...)
			wantWon, wantSpec := refCommit(ref, h.w, h.c)
			gotWon, gotSpec := j.commit(h.w, h.c)
			if gotWon != wantWon || gotSpec != wantSpec {
				fail("commit of task %d by worker %d: (%v, %v), reference (%v, %v)", h.c.Task, h.w, gotWon, gotSpec, wantWon, wantSpec)
				return st
			}
			if wantSpec {
				st.specWins++
			}
		default: // job-scoped crash of a slice worker
			w := slice[rng.Intn(len(slice))]
			before := ref.replanExtra
			refDeath(ref, w)
			f.jobDeathLocked(j, w)
			gotErr := ""
			if j.err != nil {
				gotErr = j.err.Error()
			}
			if j.reclaimedCells != ref.reclaimedCells || j.replanExtra != ref.replanExtra ||
				j.degraded != ref.degraded || j.terminal() != ref.terminal || gotErr != ref.err {
				fail("crash of worker %d: reclaimed %d extra %v degraded %d err %q, reference %d %v %d %q",
					w, j.reclaimedCells, j.replanExtra, j.degraded, gotErr,
					ref.reclaimedCells, ref.replanExtra, ref.degraded, ref.err)
				return st
			}
			st.reclaims++
			if ref.replanExtra > before {
				st.replanned++
			}
			if ref.aliveLeft == 0 {
				st.allDead++
			} else if ref.terminal {
				st.overBudget++
			}
		}
		if j.terminal() != ref.terminal || (!ref.terminal && j.leases.CellsLeft() != ref.cellsLeft) {
			fail("cells left %d terminal %v, reference %d %v", j.leases.CellsLeft(), j.terminal(), ref.cellsLeft, ref.terminal)
			return st
		}
	}
	if ref.cellsLeft == 0 {
		st.done++
	}
	return st
}
