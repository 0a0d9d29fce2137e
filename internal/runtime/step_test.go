package runtime

import (
	"context"
	"reflect"
	"testing"

	"nlfl/internal/faults"
	"nlfl/internal/matmul"
	"nlfl/internal/trace"
)

// hostCall is one ChunkHost call as recordingHost saw it.
type hostCall struct {
	kind     string // shipped, crashed, exhausted, commit or wasted
	span     trace.Span
	relays   []trace.Relay
	inflight float64
	err      string
}

// recordingHost is a ChunkHost that books every call in order. lose
// makes it lose every commit race (booking the Wasted span, as the real
// hosts do); onShip runs inside Shipped.
type recordingHost struct {
	calls  []hostCall
	lose   bool
	onShip func()
}

func (h *recordingHost) Shipped(w int, comm trace.Span, relays []trace.Relay) bool {
	h.calls = append(h.calls, hostCall{kind: "shipped", span: comm, relays: append([]trace.Relay(nil), relays...)})
	if h.onShip != nil {
		h.onShip()
	}
	return true
}

func (h *recordingHost) Crashed(w int, inflight float64, killed trace.Span) {
	h.calls = append(h.calls, hostCall{kind: "crashed", span: killed, inflight: inflight})
}

func (h *recordingHost) Exhausted(err error) {
	h.calls = append(h.calls, hostCall{kind: "exhausted", err: err.Error()})
}

func (h *recordingHost) Commit(w int, c Chunk, compute trace.Span) bool {
	if h.lose {
		compute.Outcome = trace.Wasted
		h.calls = append(h.calls, hostCall{kind: "wasted", span: compute})
		return false
	}
	h.calls = append(h.calls, hostCall{kind: "commit", span: compute})
	return true
}

// The step fixture: an 8×8 chunk (64 cells, 16 shipped elements) paid at
// 64 cells/s from a 1-cell burst, so its compute takes exactly 63/64 s;
// backoff starts at 1/16 s. Every instant below is dyadic, so shifting a
// scenario by a power-of-two epoch shifts every span exactly.
const (
	stepRate    = 64.0
	stepBackoff = 1.0 / 16
	stepCompute = 63.0 / 64
)

var stepChunk = Chunk{Task: 7, RowLo: 0, RowHi: 8, ColLo: 0, ColHi: 8, Owner: -1}

// stepCase is one ServeChunk call on a fresh virtual clock.
type stepCase struct {
	events []faults.Event
	chaos  Chaos
	epoch  float64
	topo   Topology // nil: memcpy transfers
	w      int      // the serving worker of a 2-worker pool
	host   recordingHost
	ctx    context.Context
}

// serve runs the case's chunk through ServeChunk as worker c.w, starting
// at clock instant c.epoch, and returns the step's result and output.
func (c *stepCase) serve(t *testing.T) (trace.Span, bool, *matmul.Matrix) {
	t.Helper()
	const p = 2
	tab, err := faults.Scenario{Events: c.events}.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	if c.ctx == nil {
		c.ctx = context.Background()
	}
	vc := newVirtualClock(p)
	for v := 0; v < p; v++ {
		if v != c.w {
			go func(v int) { vc.join(v); vc.leave(v) }(v) // an idle pool member
		}
	}
	vc.join(c.w)
	defer vc.leave(c.w)
	vc.SleepUntil(c.ctx, c.w, c.epoch)
	a, b := linkVectors(8)
	job := &ChunkJob{A: a, B: b, Out: matmul.New(8, 8), Faults: tab, Chaos: c.chaos, Host: &c.host}
	cw := &ChunkWorker{tb: newTokenBucket(vc, c.w, stepRate, 1), nl: newNetLink(c.topo, p, vc)}
	filled, ok := cw.ServeChunk(c.ctx, job, stepChunk, c.epoch)
	return filled, ok, job.Out
}

func comm(start, end float64, outcome trace.Outcome) hostCall {
	return hostCall{kind: "shipped", span: trace.Span{Kind: trace.Comm, Start: start, End: end, Data: 16, Task: 7, Outcome: outcome}}
}

func compute(kind string, start, end float64, outcome trace.Outcome) hostCall {
	return hostCall{kind: kind, span: trace.Span{Kind: trace.Compute, Start: start, End: end, Work: 64, Task: 7, Outcome: outcome}}
}

// dropUntil loses every transfer to worker w started before until.
func dropUntil(w int, until float64) faults.Event {
	return faults.Event{Kind: faults.LinkDrop, Worker: w, Time: 0, Until: until, DropProb: 1}
}

// TestServeChunkAgainstFakeHost drives the one chunk step through a
// recording host on the virtual clock and pins, for each fault path,
// exactly which consequences the host sees, at which instants, and
// whether the output is filled.
func TestServeChunkAgainstFakeHost(t *testing.T) {
	chaos := Chaos{MaxRetries: 4, BackoffBase: stepBackoff, BackoffMax: 1}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows := []struct {
		name   string
		c      stepCase
		want   []hostCall
		filled bool
	}{
		{"clean", stepCase{chaos: chaos},
			[]hostCall{comm(0, 0, trace.OK), compute("commit", 0, stepCompute, trace.OK)}, true},
		// Two drops, then a delivery: the waits between the attempts are
		// exactly the base and twice the base.
		{"drops-then-delivery", stepCase{events: []faults.Event{dropUntil(0, 0.1)}, chaos: chaos},
			[]hostCall{
				comm(0, 0, trace.Dropped),
				comm(stepBackoff, stepBackoff, trace.Dropped),
				comm(3*stepBackoff, 3*stepBackoff, trace.OK),
				compute("commit", 3*stepBackoff, 3*stepBackoff+stepCompute, trace.OK),
			}, true},
		{"budget-exhausted", stepCase{events: []faults.Event{dropUntil(0, 100)}, chaos: Chaos{MaxRetries: 1, BackoffBase: stepBackoff}},
			[]hostCall{
				comm(0, 0, trace.Dropped),
				comm(stepBackoff, stepBackoff, trace.Dropped),
				{kind: "exhausted", err: "worker 0 lost chunk 7 on 2 consecutive transfer attempts"},
			}, false},
		{"outage-stall", stepCase{events: []faults.Event{{Kind: faults.Transient, Worker: 0, Time: 0, Until: 0.25}}, chaos: chaos},
			[]hostCall{comm(0, 0, trace.OK), compute("commit", 0.25, 0.25+stepCompute, trace.OK)}, true},
		{"crash-before-shipping", stepCase{events: []faults.Event{{Kind: faults.Crash, Worker: 0, Time: 0}}, chaos: chaos},
			[]hostCall{{kind: "crashed"}}, false},
		{"crash-during-stall", stepCase{events: []faults.Event{
			{Kind: faults.Transient, Worker: 0, Time: 0, Until: 1}, {Kind: faults.Crash, Worker: 0, Time: 0.5}}, chaos: chaos},
			[]hostCall{comm(0, 0, trace.OK), {kind: "crashed", inflight: 16}}, false},
		// The Killed span ends exactly at the crash instant.
		{"crash-mid-compute", stepCase{events: []faults.Event{{Kind: faults.Crash, Worker: 0, Time: 0.5}}, chaos: chaos},
			[]hostCall{comm(0, 0, trace.OK), func() hostCall {
				k := compute("crashed", 0, 0.5, trace.Killed)
				k.inflight = 16
				return k
			}()}, false},
		{"lost-commit", stepCase{chaos: chaos, host: recordingHost{lose: true}},
			[]hostCall{comm(0, 0, trace.OK), compute("wasted", 0, stepCompute, trace.Wasted)}, false},
		// A booked store-and-forward delivery to the deep worker of a
		// two-hop chain at 32 elements/s: the first hop is a relay.
		{"chain-relay", stepCase{chaos: chaos, topo: UniformChain(2, 32), w: 1},
			[]hostCall{
				{kind: "shipped", span: trace.Span{Kind: trace.Comm, Start: 0.5, End: 1, Data: 16, Task: 7},
					relays: []trace.Relay{{Edge: 0, Dest: 1, Start: 0, End: 0.5, Data: 16, Task: 7}}},
				compute("commit", 1, 1+stepCompute, trace.OK),
			}, true},
		// Cancellation during the backoff after a drop books nothing more.
		{"cancel-mid-backoff", stepCase{events: []faults.Event{dropUntil(0, 100)}, chaos: chaos,
			ctx: ctx, host: recordingHost{onShip: cancel}},
			[]hostCall{comm(0, 0, trace.Dropped)}, false},
	}
	a, b := linkVectors(8)
	want := matmul.VectorOuter(a, b)
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			filled, ok, out := row.c.serve(t)
			if !reflect.DeepEqual(row.c.host.calls, row.want) {
				t.Errorf("host saw\n  %+v\nwant\n  %+v", row.c.host.calls, row.want)
			}
			if ok != row.filled {
				t.Fatalf("ServeChunk ok = %v, want %v", ok, row.filled)
			}
			if !ok {
				if !matmul.New(8, 8).Equal(out, 0) {
					t.Errorf("an unfilled chunk wrote the output")
				}
				return
			}
			if !want.Equal(out, 0) {
				t.Errorf("filled chunk differs from the outer product")
			}
			if last := row.want[len(row.want)-1].span; filled != last {
				t.Errorf("filled span %+v, want the committed compute span %+v", filled, last)
			}
		})
	}
}

// TestServeChunkEpochShift runs fault scenarios twice — from clock
// instant 0 with epoch 0, and from instant 8 with epoch 8 — and requires
// the host to see the same calls with every span shifted by exactly 8:
// fault instants are read relative to the epoch.
func TestServeChunkEpochShift(t *testing.T) {
	const epoch = 8
	chaos := Chaos{MaxRetries: 4, BackoffBase: stepBackoff, BackoffMax: 1}
	for name, events := range map[string][]faults.Event{
		"drops":       {dropUntil(0, 0.1)},
		"stall":       {{Kind: faults.Transient, Worker: 0, Time: 0, Until: 0.25}},
		"crash":       {dropUntil(0, 0.1), {Kind: faults.Crash, Worker: 0, Time: 0.5}},
		"stall-crash": {{Kind: faults.Transient, Worker: 0, Time: 0, Until: 1}, {Kind: faults.Crash, Worker: 0, Time: 0.5}},
		"stragglers":  {{Kind: faults.Straggler, Worker: 0, Time: 0, Until: 1, Factor: 0.5}},
	} {
		base := stepCase{events: events, chaos: chaos}
		shifted := stepCase{events: events, chaos: chaos, epoch: epoch}
		_, okBase, _ := base.serve(t)
		_, okShifted, _ := shifted.serve(t)
		if okBase != okShifted {
			t.Errorf("%s: ok %v at epoch 0, %v at epoch %d", name, okBase, okShifted, epoch)
		}
		want := append([]hostCall(nil), base.host.calls...)
		for i := range want {
			if want[i].span != (trace.Span{}) { // a crash outside compute carries no span
				want[i].span.Start += epoch
				want[i].span.End += epoch
			}
		}
		if !reflect.DeepEqual(shifted.host.calls, want) {
			t.Errorf("%s: epoch %d saw\n  %+v\nwant epoch 0's shifted\n  %+v", name, epoch, shifted.host.calls, want)
		}
	}
}
