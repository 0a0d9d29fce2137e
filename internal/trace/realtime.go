package trace

import "sync"

// Live is a mutex-guarded Timeline for a *real* concurrent run: goroutine
// workers call Add/Mark freely while the run executes, with span bounds
// read from the run's own clock (internal/runtime's Clock). The
// simulators build their timelines single-threaded in virtual time; Live
// is the bridge that lets concurrent executors (internal/runtime) feed
// the same invariant oracle — Check audits a measured run exactly like a
// simulated one.
type Live struct {
	mu sync.Mutex
	tl *Timeline
}

// NewLive starts a live recording for p workers.
func NewLive(p int) *Live { return &Live{tl: New(p)} }

// Reserve grows each worker's span list to hold spansPerWorker entries
// and the relay list to hold relays, so a run of known size records its
// timeline without reallocating under the recording mutex. Existing
// entries are preserved; capacities never shrink. Safe for concurrent
// use, though it is meant to be called once before the workers start.
func (l *Live) Reserve(spansPerWorker, relays int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for w := range l.tl.Spans {
		if cap(l.tl.Spans[w]) < spansPerWorker {
			grown := make([]Span, len(l.tl.Spans[w]), spansPerWorker)
			copy(grown, l.tl.Spans[w])
			l.tl.Spans[w] = grown
		}
	}
	if relays > cap(l.tl.Relays) {
		grown := make([]Relay, len(l.tl.Relays), relays)
		copy(grown, l.tl.Relays)
		l.tl.Relays = grown
	}
}

// Add records a span for worker w. Safe for concurrent use.
func (l *Live) Add(w int, s Span) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.tl.Add(w, s)
}

// AddRelay records an intermediate-hop transfer window. Safe for
// concurrent use.
func (l *Live) AddRelay(r Relay) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.tl.AddRelay(r)
}

// Mark records a point event. Safe for concurrent use.
func (l *Live) Mark(m Marker) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.tl.Mark(m)
}

// Timeline returns the recording. Call it only after every worker has
// stopped adding spans; the returned timeline is the live one, not a copy.
func (l *Live) Timeline() *Timeline {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tl
}
