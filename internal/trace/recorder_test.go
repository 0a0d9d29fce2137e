package trace_test

import (
	"testing"

	"nlfl/internal/dessim"
	"nlfl/internal/trace"
)

func TestRecorder(t *testing.T) {
	eng := dessim.NewEngine()
	rec := &trace.Recorder{}
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
	bad := &trace.Recorder{}
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
