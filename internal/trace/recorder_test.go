package trace_test

import (
	"fmt"
	"testing"

	"nlfl/internal/dessim"
	"nlfl/internal/trace"
)

// recorder is a dessim.TraceSink that tallies the engine's event
// lifecycle and verifies the engine-level invariant the timeline cannot
// see: fired events must come off the queue in non-decreasing time order.
// The zero recorder is ready: attach one with eng.SetSink(rec) before the
// first event.
type recorder struct {
	// Scheduled, Fired and Cancelled count lifecycle transitions.
	Scheduled, Fired, Cancelled int64
	lastFire                    float64
	seenFire                    bool
	violations                  []trace.Violation
}

// EventScheduled implements dessim.TraceSink.
func (r *recorder) EventScheduled(seq int64, now, at float64) {
	r.Scheduled++
	if at < now {
		r.violations = append(r.violations, trace.Violation{Kind: trace.NonMonotone, Worker: -1, Task: -1,
			Detail: fmt.Sprintf("event %d scheduled at %v before now %v", seq, at, now)})
	}
}

// EventFired implements dessim.TraceSink.
func (r *recorder) EventFired(seq int64, at float64) {
	r.Fired++
	if r.seenFire && at < r.lastFire {
		r.violations = append(r.violations, trace.Violation{Kind: trace.NonMonotone, Worker: -1, Task: -1,
			Detail: fmt.Sprintf("event %d fired at %v after clock reached %v", seq, at, r.lastFire)})
	}
	r.lastFire, r.seenFire = at, true
}

// EventCancelled implements dessim.TraceSink.
func (r *recorder) EventCancelled(seq int64, now float64) { r.Cancelled++ }

// Violations returns the engine-level invariant violations observed (nil
// when the run was causally clean).
func (r *recorder) Violations() []trace.Violation {
	if len(r.violations) == 0 {
		return nil
	}
	return append([]trace.Violation(nil), r.violations...)
}

func TestRecorder(t *testing.T) {
	eng := dessim.NewEngine()
	rec := &recorder{}
	eng.SetSink(rec)
	h := eng.Schedule(2, func() {})
	eng.Schedule(1, func() {})
	h.Cancel()
	eng.Run()
	if rec.Scheduled != 2 || rec.Fired != 1 || rec.Cancelled != 1 {
		t.Errorf("counts: %+v", rec)
	}
	if vs := rec.Violations(); vs != nil {
		t.Errorf("clean run flagged: %v", vs)
	}

	// Feed the recorder an impossible sequence directly (the engine itself
	// panics on these, so simulate a buggy engine).
	bad := &recorder{}
	bad.EventScheduled(1, 5, 3) // scheduled in the past
	bad.EventFired(1, 5)
	bad.EventFired(2, 4) // clock went backwards
	vs := bad.Violations()
	if len(vs) != 2 {
		t.Fatalf("want 2 violations, got %v", vs)
	}
	for _, v := range vs {
		if v.Kind != trace.NonMonotone {
			t.Errorf("kind = %v", v.Kind)
		}
	}
}
