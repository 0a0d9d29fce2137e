package dessim

import "testing"

// countingSink records every lifecycle callback in order.
type countingSink struct {
	scheduled, fired, cancelled int
	lastSeq                     int64
	lastNow                     float64
}

func (s *countingSink) EventScheduled(seq int64, now, at float64) {
	s.scheduled++
	s.lastSeq = seq
}
func (s *countingSink) EventFired(seq int64, at float64) { s.fired++ }
func (s *countingSink) EventCancelled(seq int64, now float64) {
	s.cancelled++
	s.lastNow = now
}

func TestEngineSinkLifecycle(t *testing.T) {
	eng := NewEngine()
	sink := &countingSink{}
	eng.SetSink(sink)
	var h *Handle
	eng.At(1, func() {
		h.Cancel() // cancel the later event from inside an earlier one
	})
	h = eng.Schedule(2, func() { t.Error("cancelled event fired") })
	eng.Schedule(3, func() {})
	eng.Run()
	if sink.scheduled != 3 || sink.fired != 2 || sink.cancelled != 1 {
		t.Errorf("sink counts: %+v", sink)
	}
	if sink.lastNow != 1 {
		t.Errorf("cancellation observed at %v, want 1 (the cancelling event's time)", sink.lastNow)
	}
	// Double-cancel must not re-notify.
	h.Cancel()
	if sink.cancelled != 1 {
		t.Error("double cancel re-notified the sink")
	}
	// Detaching stops notifications.
	eng.SetSink(nil)
	eng.Schedule(4, func() {})
	eng.Run()
	if sink.scheduled != 3 || sink.fired != 2 {
		t.Errorf("detached sink still notified: %+v", sink)
	}
}
