package trace

import "fmt"

// Recorder is a dessim.TraceSink that tallies the engine's event
// lifecycle and verifies the engine-level invariant the timeline cannot
// see: fired events must come off the queue in non-decreasing time order.
// The zero Recorder is ready: attach one with eng.SetSink(rec) before the
// first event.
type Recorder struct {
	// Scheduled, Fired and Cancelled count lifecycle transitions.
	Scheduled, Fired, Cancelled int64
	lastFire                    float64
	seenFire                    bool
	violations                  []Violation
}

// EventScheduled implements dessim.TraceSink.
func (r *Recorder) EventScheduled(seq int64, now, at float64) {
	r.Scheduled++
	if at < now {
		r.violations = append(r.violations, Violation{Kind: NonMonotone, Worker: -1, Task: -1,
			Detail: fmt.Sprintf("event %d scheduled at %v before now %v", seq, at, now)})
	}
}

// EventFired implements dessim.TraceSink.
func (r *Recorder) EventFired(seq int64, at float64) {
	r.Fired++
	if r.seenFire && at < r.lastFire {
		r.violations = append(r.violations, Violation{Kind: NonMonotone, Worker: -1, Task: -1,
			Detail: fmt.Sprintf("event %d fired at %v after clock reached %v", seq, at, r.lastFire)})
	}
	r.lastFire, r.seenFire = at, true
}

// EventCancelled implements dessim.TraceSink.
func (r *Recorder) EventCancelled(seq int64, now float64) { r.Cancelled++ }

// Violations returns the engine-level invariant violations observed (nil
// when the run was causally clean).
func (r *Recorder) Violations() []Violation {
	out := make([]Violation, len(r.violations))
	copy(out, r.violations)
	if len(out) == 0 {
		return nil
	}
	return out
}
