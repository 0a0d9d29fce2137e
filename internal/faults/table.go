package faults

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"nlfl/internal/platform"
	"nlfl/internal/stats"
)

// Table is a Scenario lowered once into per-worker query tables — the
// one fault model every executor reads: the DES executors of this
// package on simulated time, the measured runtime and every fleet job on
// live seconds. The deterministic tables are read-only after Compile;
// the LinkDrop coin flips share one seeded RNG behind a mutex, so the
// flip sequence is reproducible even when concurrent callers race for
// which transfer consumes which flip.
type Table struct {
	crashAt []float64  // earliest Crash instant per worker (+Inf: none)
	pause   [][]window // Transient outages
	slow    [][]window // Straggler compute factors, stable start order
	link    [][]window // LinkSlow bandwidth factors, stable start order
	drop    [][]window // LinkDrop loss probabilities, scenario order

	mu  sync.Mutex
	rng *stats.RNG
}

// window is one [start, end) fault window; factor carries the speed or
// bandwidth multiplier, or the drop probability.
type window struct {
	start, end, factor float64
}

func (w window) covers(t float64) bool { return t >= w.start && t < w.end }

// Compile validates the scenario against a p-worker platform and lowers
// it into a Table.
func (s Scenario) Compile(p int) (*Table, error) {
	if err := s.Validate(p); err != nil {
		return nil, err
	}
	tab := &Table{
		crashAt: make([]float64, p),
		pause:   make([][]window, p),
		slow:    make([][]window, p),
		link:    make([][]window, p),
		drop:    make([][]window, p),
		rng:     stats.NewRNG(s.Seed),
	}
	for w := range tab.crashAt {
		tab.crashAt[w] = math.Inf(1)
	}
	for _, e := range s.Events {
		w, win := e.Worker, window{e.Time, e.Until, e.Factor}
		switch e.Kind {
		case Crash:
			tab.crashAt[w] = math.Min(tab.crashAt[w], e.Time)
		case Transient:
			tab.pause[w] = append(tab.pause[w], win)
		case Straggler:
			tab.slow[w] = append(tab.slow[w], win)
		case LinkSlow:
			tab.link[w] = append(tab.link[w], win)
		case LinkDrop:
			win.factor = e.DropProb
			tab.drop[w] = append(tab.drop[w], win)
		}
	}
	// Overlapping factors multiply in window-start order, so a profile's
	// product does not depend on how the scenario lists its events.
	for w := 0; w < p; w++ {
		sort.SliceStable(tab.slow[w], func(i, j int) bool { return tab.slow[w][i].start < tab.slow[w][j].start })
		sort.SliceStable(tab.link[w], func(i, j int) bool { return tab.link[w][i].start < tab.link[w][j].start })
	}
	return tab, nil
}

// CrashAt returns worker w's earliest permanent crash instant (+Inf when
// it never crashes).
func (tab *Table) CrashAt(w int) float64 { return tab.crashAt[w] }

// PausedUntil reports whether worker w is inside a transient outage at t
// and, if so, when the latest covering outage ends.
func (tab *Table) PausedUntil(w int, t float64) (until float64, paused bool) {
	for _, win := range tab.pause[w] {
		if win.covers(t) && win.end > until {
			until, paused = win.end, true
		}
	}
	return until, paused
}

// ComputeScale returns the product of worker w's Straggler factors
// covering t: its compute-speed multiplier while it is up.
func (tab *Table) ComputeScale(w int, t float64) float64 { return product(tab.slow[w], t) }

// LinkScale returns the product of worker w's LinkSlow factors covering
// t: the bandwidth multiplier of a transfer to w starting at t.
func (tab *Table) LinkScale(w int, t float64) float64 { return product(tab.link[w], t) }

func product(ws []window, t float64) float64 {
	f := 1.0
	for _, win := range ws {
		if win.covers(t) {
			f *= win.factor
		}
	}
	return f
}

// Drop decides whether a transfer to worker w starting at t is lost:
// each covering LinkDrop window flips one seeded coin, in scenario
// order. The RNG is consumed only inside a window, so runs without flaky
// links stay bit-identical regardless of seed. Safe for concurrent use.
func (tab *Table) Drop(w int, t float64) bool {
	for _, win := range tab.drop[w] {
		if !win.covers(t) {
			continue
		}
		tab.mu.Lock()
		u := tab.rng.Float64()
		tab.mu.Unlock()
		if u < win.factor {
			return true
		}
	}
	return false
}

// speed is worker w's compute multiplier at t: zero once it has crashed
// or while it is paused, its straggler product otherwise.
func (tab *Table) speed(w int, t float64) float64 {
	if _, paused := tab.PausedUntil(w, t); paused || t >= tab.crashAt[w] {
		return 0
	}
	return tab.ComputeScale(w, t)
}

// edges lists worker w's finite speed-profile edges strictly after
// start (crash instant, outage and straggler window bounds), ascending
// and deduplicated: the breakpoints of the piecewise-constant speed.
func (tab *Table) edges(w int, start float64) []float64 {
	bs := []float64{tab.crashAt[w]}
	for _, ws := range [2][]window{tab.pause[w], tab.slow[w]} {
		for _, win := range ws {
			bs = append(bs, win.start, win.end)
		}
	}
	sort.Float64s(bs)
	out := bs[:0]
	for _, b := range bs {
		if b > start && !math.IsInf(b, 1) && (len(out) == 0 || b != out[len(out)-1]) {
			out = append(out, b)
		}
	}
	return out
}

// IntegrateWork returns the time at which `work` units complete on
// worker w of p when computation starts at `start`: piecewise-constant
// integration of its nominal speed times the fault profile, breaking at
// every edge. It returns +Inf when the profile starves the worker for
// ever.
func (tab *Table) IntegrateWork(p *platform.Platform, w int, start, work float64) float64 {
	if work <= 0 {
		return start
	}
	nominal := p.Worker(w).Speed
	bounds := tab.edges(w, start)
	t := start
	remaining := work
	for i := 0; ; i++ {
		until := math.Inf(1)
		if i < len(bounds) {
			until = bounds[i]
		}
		if rate := nominal * tab.speed(w, t); rate > 0 {
			need := remaining / rate
			if t+need <= until {
				return t + need
			}
			remaining -= rate * (until - t)
		}
		if math.IsInf(until, 1) {
			return math.Inf(1)
		}
		t = until
	}
}

// WorkBetween returns the work units worker w of p completes between
// `from` and `to` — the inverse view of IntegrateWork, used to account
// for partial work a crash destroys.
func (tab *Table) WorkBetween(p *platform.Platform, w int, from, to float64) float64 {
	if to <= from {
		return 0
	}
	nominal := p.Worker(w).Speed
	bounds := tab.edges(w, from)
	t := from
	work := 0.0
	for i := 0; t < to; i++ {
		until := to
		if i < len(bounds) && bounds[i] < to {
			until = bounds[i]
		}
		work += nominal * tab.speed(w, t) * (until - t)
		t = until
	}
	return work
}

// SurvivorPlatform builds the sub-platform of p's workers not crashed by
// time t, preserving nominal speeds and bandwidths. The returned index
// slice maps new worker indices to the original ones. It errors when
// every worker is down.
func (tab *Table) SurvivorPlatform(p *platform.Platform, t float64) (*platform.Platform, []int, error) {
	if p.P() != len(tab.crashAt) {
		return nil, nil, fmt.Errorf("faults: table covers %d workers, platform has %d", len(tab.crashAt), p.P())
	}
	var idx []int
	var ws []platform.Worker
	for w, at := range tab.crashAt {
		if t < at {
			idx = append(idx, w)
			ws = append(ws, p.Worker(w))
		}
	}
	if len(idx) == 0 {
		return nil, nil, fmt.Errorf("faults: no survivors at time %v", t)
	}
	sub, err := platform.New(ws)
	if err != nil {
		return nil, nil, err
	}
	return sub, idx, nil
}
