// Package dessim is a small discrete-event simulator for master–worker
// star platforms.
//
// The paper's model (Section 1.2) is analytically simple — parallel
// master→worker links, no return messages, single round — but several of
// the reproduced experiments need an executable model: the demand-driven
// chunk distribution behind the Homogeneous Blocks strategy (Section 4.1.1),
// the one-port sequential-distribution baseline of the non-linear DLT
// literature (Section 2's references [31–35]), and multi-round linear DLT.
// This package provides the event engine and the star-network executors
// they share. Every executor records its run as a *trace.Timeline, the
// record the trace.Check oracle audits.
package dessim

import (
	"container/heap"
	"fmt"
	"math"
)

// event is a scheduled callback.
type event struct {
	time      float64
	seq       int64 // FIFO tie-break for equal times
	action    func()
	cancelled bool
	fired     bool
}

// Handle names a scheduled event so it can be cancelled before it fires —
// the primitive behind fault handling: a worker crash must be able to
// retract the completion events of whatever that worker had in flight.
// The zero Handle and the nil Handle are both inert.
type Handle struct {
	ev  *event
	eng *Engine
}

// Cancel retracts the event if it has not fired yet. Cancelling an
// already-fired or already-cancelled event is a no-op, as is cancelling a
// nil or zero Handle — callers never need to track firing state to cancel
// safely.
func (h *Handle) Cancel() {
	if h == nil || h.ev == nil || h.ev.fired || h.ev.cancelled {
		return
	}
	h.ev.cancelled = true
	if h.eng != nil && h.eng.sink != nil {
		h.eng.sink.EventCancelled(h.ev.seq, h.eng.now)
	}
}

// eventQueue is a min-heap on (time, seq).
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) {
	*q = append(*q, x.(*event))
}
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// TraceSink observes the engine's event lifecycle. All callbacks run
// synchronously on the simulation's goroutine; implementations must not
// schedule or cancel events from inside a callback.
type TraceSink interface {
	// EventScheduled fires when an event is queued for time `at` while the
	// clock reads `now`.
	EventScheduled(seq int64, now, at float64)
	// EventFired fires just before a (non-cancelled) event's action runs.
	EventFired(seq int64, at float64)
	// EventCancelled fires when a pending event is retracted at time `now`.
	EventCancelled(seq int64, now float64)
}

// Engine is the discrete-event core: a virtual clock plus a time-ordered
// queue of callbacks. Events scheduled at equal times run in scheduling
// order (FIFO), making simulations fully deterministic.
type Engine struct {
	now   float64
	queue eventQueue
	seq   int64
	sink  TraceSink
}

// NewEngine returns an engine with the clock at 0.
func NewEngine() *Engine { return &Engine{} }

// SetSink attaches a trace sink (nil detaches). The sink observes every
// schedule/fire/cancel from then on; attach it before the first event for
// a complete record.
func (e *Engine) SetSink(s TraceSink) { e.sink = s }

// Now returns the current virtual time.
func (e *Engine) Now() float64 { return e.now }

// At schedules action at absolute time t. Scheduling in the past (t < Now)
// panics: it would violate causality. Scheduling exactly at Now is legal
// and the event fires after the currently executing one (FIFO order).
func (e *Engine) At(t float64, action func()) {
	e.Schedule(t, action)
}

// After schedules action d time units from now (d must be >= 0).
func (e *Engine) After(d float64, action func()) {
	e.ScheduleAfter(d, action)
}

// Schedule is At returning a Handle that can cancel the event before it
// fires.
func (e *Engine) Schedule(t float64, action func()) *Handle {
	if t < e.now {
		panic(fmt.Sprintf("dessim: scheduling at %v before now=%v", t, e.now))
	}
	if math.IsNaN(t) {
		panic("dessim: scheduling at NaN time")
	}
	e.seq++
	ev := &event{time: t, seq: e.seq, action: action}
	heap.Push(&e.queue, ev)
	if e.sink != nil {
		e.sink.EventScheduled(ev.seq, e.now, t)
	}
	return &Handle{ev: ev, eng: e}
}

// ScheduleAfter is After returning a cancellation Handle.
func (e *Engine) ScheduleAfter(d float64, action func()) *Handle {
	if d < 0 {
		panic(fmt.Sprintf("dessim: negative delay %v", d))
	}
	return e.Schedule(e.now+d, action)
}

// Run executes events until the queue drains and returns the final clock
// value (the makespan of whatever was simulated). A cancelled event is
// dropped without running its action or advancing the clock.
func (e *Engine) Run() float64 {
	for e.queue.Len() > 0 {
		ev := heap.Pop(&e.queue).(*event)
		if ev.cancelled {
			continue
		}
		e.now = ev.time
		ev.fired = true
		if e.sink != nil {
			e.sink.EventFired(ev.seq, ev.time)
		}
		ev.action()
	}
	return e.now
}

// Resource models an exclusive serially-reusable resource (a CPU, or the
// master's outgoing port in the one-port model). Book reserves the
// earliest interval of the given duration starting no sooner than t and
// returns its bounds.
type Resource struct {
	freeAt float64
}

// Book reserves [start, start+dur) with start = max(t, next free time).
func (r *Resource) Book(t, dur float64) (start, end float64) {
	if dur < 0 {
		panic(fmt.Sprintf("dessim: negative booking duration %v", dur))
	}
	start = t
	if r.freeAt > start {
		start = r.freeAt
	}
	end = start + dur
	r.freeAt = end
	return start, end
}

// FreeAt returns the time the resource next becomes available.
func (r *Resource) FreeAt() float64 { return r.freeAt }
