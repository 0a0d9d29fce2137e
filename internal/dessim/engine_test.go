package dessim

import (
	"math"
	"testing"
)

func TestEngineOrdersEvents(t *testing.T) {
	e := NewEngine()
	sink := &countingSink{}
	e.SetSink(sink)
	var order []int
	e.At(3, func() { order = append(order, 3) })
	e.At(1, func() { order = append(order, 1) })
	e.At(2, func() { order = append(order, 2) })
	end := e.Run()
	if end != 3 {
		t.Errorf("final time = %v, want 3", end)
	}
	for i, v := range []int{1, 2, 3} {
		if order[i] != v {
			t.Fatalf("order = %v", order)
		}
	}
	if sink.fired != 3 {
		t.Errorf("fired %d events, want 3", sink.fired)
	}
}

func TestEngineFIFOAtEqualTimes(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(1, func() { order = append(order, i) })
	}
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("equal-time events not FIFO: %v", order)
		}
	}
}

func TestEngineAfterAndNesting(t *testing.T) {
	e := NewEngine()
	var times []float64
	e.At(1, func() {
		times = append(times, e.Now())
		e.After(2, func() { times = append(times, e.Now()) })
	})
	e.Run()
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Errorf("times = %v, want [1 3]", times)
	}
}

func TestEnginePanicsOnCausalityViolation(t *testing.T) {
	e := NewEngine()
	e.At(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		e.At(1, func() {})
	})
	e.Run()

	defer func() {
		if recover() == nil {
			t.Error("negative After should panic")
		}
	}()
	e.After(-1, func() {})
}

func TestEnginePanicsOnNaN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NaN time should panic")
		}
	}()
	NewEngine().At(math.NaN(), func() {})
}

func TestEngineZeroDurationEvent(t *testing.T) {
	// After(0) from inside an event must fire at the same clock value,
	// after the currently running event (FIFO), not be lost or reordered.
	e := NewEngine()
	var order []string
	e.At(1, func() {
		order = append(order, "outer")
		e.After(0, func() {
			order = append(order, "inner")
			if e.Now() != 1 {
				t.Errorf("zero-duration event fired at %v, want 1", e.Now())
			}
		})
	})
	e.At(1, func() { order = append(order, "sibling") })
	if end := e.Run(); end != 1 {
		t.Errorf("makespan = %v, want 1", end)
	}
	want := []string{"outer", "sibling", "inner"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEngineScheduleAtCurrentClock(t *testing.T) {
	// Scheduling exactly at Now() (not in the past) is legal, both before
	// the run starts and from inside an event.
	e := NewEngine()
	ran := 0
	e.At(0, func() {
		ran++
		e.At(e.Now(), func() { ran++ }) // t == now: allowed
	})
	e.Run()
	if ran != 2 {
		t.Errorf("ran %d events, want 2", ran)
	}
}

// cancelled reports whether Cancel retracted h's event before it fired.
func cancelled(h *Handle) bool {
	return h != nil && h.ev != nil && h.ev.cancelled
}

func TestEngineCancelPendingEvent(t *testing.T) {
	e := NewEngine()
	sink := &countingSink{}
	e.SetSink(sink)
	var fired []int
	e.At(1, func() { fired = append(fired, 1) })
	h := e.Schedule(2, func() { fired = append(fired, 2) })
	e.At(3, func() { fired = append(fired, 3) })
	h.Cancel()
	if !cancelled(h) {
		t.Error("handle should report cancelled")
	}
	if pending := sink.scheduled - sink.cancelled; pending != 2 {
		t.Errorf("pending = %d, want 2 (cancelled event excluded)", pending)
	}
	end := e.Run()
	if end != 3 {
		t.Errorf("makespan = %v, want 3", end)
	}
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 3 {
		t.Errorf("fired = %v, want [1 3]", fired)
	}
	if sink.fired != 2 {
		t.Errorf("fired %d events, want 2 (cancelled events do not fire)", sink.fired)
	}
}

func TestEngineCancelFiredEventIsNoop(t *testing.T) {
	// Cancelling an event that already fired must be a no-op, not a panic,
	// and must not disturb the rest of the run.
	e := NewEngine()
	ran := 0
	h := e.Schedule(1, func() { ran++ })
	e.At(2, func() {
		h.Cancel() // h fired at t=1; this must do nothing
		if cancelled(h) {
			t.Error("a fired event must not become cancelled")
		}
		if !h.ev.fired {
			t.Error("the event should have fired")
		}
		ran++
	})
	e.Run()
	if ran != 2 {
		t.Errorf("ran %d events, want 2", ran)
	}
	h.Cancel() // and again after the run drains: still a no-op
}

func TestEngineCancelNilAndZeroHandles(t *testing.T) {
	var nilH *Handle
	nilH.Cancel() // must not panic
	var zero Handle
	zero.Cancel() // must not panic
	if cancelled(nilH) || cancelled(&zero) {
		t.Error("inert handles should not report cancelled")
	}
}

func TestEngineCancelledTailDoesNotAdvanceClock(t *testing.T) {
	// A cancelled event at the end of the queue must not drag the clock
	// (and hence the reported makespan) forward.
	e := NewEngine()
	e.At(1, func() {})
	h := e.Schedule(100, func() { t.Error("cancelled event ran") })
	h.Cancel()
	if end := e.Run(); end != 1 {
		t.Errorf("makespan = %v, want 1 (cancelled tail ignored)", end)
	}
}

func TestResourceBooking(t *testing.T) {
	var r Resource
	busy := 0.0
	s, e := r.Book(0, 5)
	busy += e - s
	if s != 0 || e != 5 {
		t.Errorf("first booking = [%v,%v], want [0,5]", s, e)
	}
	// Second booking at t=2 must wait for the resource.
	s, e = r.Book(2, 3)
	busy += e - s
	if s != 5 || e != 8 {
		t.Errorf("second booking = [%v,%v], want [5,8]", s, e)
	}
	// Booking after the free time starts immediately.
	s, e = r.Book(10, 1)
	busy += e - s
	if s != 10 || e != 11 {
		t.Errorf("third booking = [%v,%v], want [10,11]", s, e)
	}
	if busy != 9 {
		t.Errorf("busy = %v, want 9", busy)
	}
	if r.FreeAt() != 11 {
		t.Errorf("freeAt = %v, want 11", r.FreeAt())
	}
}

func TestResourceNegativeDurationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative duration should panic")
		}
	}()
	var r Resource
	r.Book(0, -1)
}
