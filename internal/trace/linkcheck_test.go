package trace

import (
	"math"
	"sync"
	"testing"
)

// capTimeline builds a two-worker timeline whose comm spans are fully
// described by the (start, end, data) triples per worker.
func capTimeline(spans [][][3]float64) *Timeline {
	tl := New(len(spans))
	for w, ss := range spans {
		for i, s := range ss {
			tl.Add(w, Span{Kind: Comm, Start: s[0], End: s[1], Data: s[2], Task: i})
		}
	}
	return tl
}

func capViolations(tl *Timeline, capacity float64) []Violation {
	var out []Violation
	for _, v := range Check(tl, &Expect{LinkCapacity: capacity, Tol: 1e-9}) {
		if v.Kind == LinkCapacityExceeded {
			out = append(out, v)
		}
	}
	return out
}

func TestLinkCapacityCleanSerializedTransfers(t *testing.T) {
	// One-port behavior: transfers tile the link timeline back-to-back,
	// each at exactly the capacity rate. Touching endpoints must not be
	// read as overlap.
	tl := capTimeline([][][3]float64{
		{{0, 1, 100}, {2, 3, 100}},
		{{1, 2, 100}},
	})
	if vs := capViolations(tl, 100); len(vs) != 0 {
		t.Errorf("serialized transfers at capacity flagged: %v", vs)
	}
}

func TestLinkCapacityConcurrentWithinBudget(t *testing.T) {
	// Two concurrent half-rate transfers sum to the capacity exactly.
	tl := capTimeline([][][3]float64{
		{{0, 2, 100}},
		{{0, 2, 100}},
	})
	if vs := capViolations(tl, 100); len(vs) != 0 {
		t.Errorf("two half-rate transfers within capacity flagged: %v", vs)
	}
}

func TestLinkCapacityFlagsOversubscription(t *testing.T) {
	// Two overlapping full-rate transfers: the instant [1,2) carries 2×
	// the capacity.
	tl := capTimeline([][][3]float64{
		{{0, 2, 200}},
		{{1, 3, 200}},
	})
	vs := capViolations(tl, 100)
	if len(vs) != 1 {
		t.Fatalf("oversubscribed link produced %d violations, want 1: %v", len(vs), vs)
	}
}

func TestLinkCapacityFlagsInstantTransfer(t *testing.T) {
	// A zero-duration span carrying data is an infinite-rate transfer.
	tl := capTimeline([][][3]float64{{{1, 1, 64}}})
	vs := capViolations(tl, 1e12)
	if len(vs) != 1 {
		t.Fatalf("instantaneous transfer produced %d violations, want 1: %v", len(vs), vs)
	}
	if vs[0].Worker != 0 || vs[0].Task != 0 {
		t.Errorf("violation misattributed: %+v", vs[0])
	}
}

func TestLinkCapacityZeroSkipsCheck(t *testing.T) {
	tl := capTimeline([][][3]float64{{{1, 1, 64}}, {{0, 1, 1e9}}})
	if vs := capViolations(tl, 0); len(vs) != 0 {
		t.Errorf("disabled capacity check still flagged: %v", vs)
	}
}

func TestCommAndOverlapTimes(t *testing.T) {
	tl := New(2)
	// Worker 0: comm [0,2), compute [1,4) — 1s of hidden comm.
	tl.Add(0, Span{Kind: Comm, Start: 0, End: 2, Data: 10})
	tl.Add(0, Span{Kind: Compute, Start: 1, End: 4, Work: 5})
	// Worker 1: comm [0,1) then compute [1,2) — no overlap.
	tl.Add(1, Span{Kind: Comm, Start: 0, End: 1, Data: 10})
	tl.Add(1, Span{Kind: Compute, Start: 1, End: 2, Work: 5})

	comm := tl.CommTimes()
	if comm[0] != 2 || comm[1] != 1 {
		t.Errorf("CommTimes = %v, want [2 1]", comm)
	}
	ov := tl.OverlapTimes()
	if math.Abs(ov[0]-1) > 1e-12 || ov[1] != 0 {
		t.Errorf("OverlapTimes = %v, want [1 0]", ov)
	}
}

// TestLiveConcurrentPrefetchPattern hammers one Live recorder with the
// access pattern of the runtime's prefetching workers — comm spans and
// markers racing in from every worker goroutine at once — and is
// meaningful under -race (CI's race job).
func TestLiveConcurrentPrefetchPattern(t *testing.T) {
	const workers, perWorker = 8, 50
	l := NewLive(workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				t0, t1 := float64(i), float64(i+1)
				l.Add(w, Span{Kind: Comm, Start: t0, End: t1, Data: 1, Task: i})
				l.Mark(Marker{Kind: MarkDrop, Worker: w, Time: t1})
			}
		}(w)
	}
	wg.Wait()
	tl := l.Timeline()
	total := 0
	for _, spans := range tl.Spans {
		total += len(spans)
	}
	if total != workers*perWorker {
		t.Errorf("recorded %d spans, want %d", total, workers*perWorker)
	}
	if len(tl.Marks) != workers*perWorker {
		t.Errorf("recorded %d marks, want %d", len(tl.Marks), workers*perWorker)
	}
	if vs := Check(tl, nil); len(vs) != 0 {
		t.Errorf("concurrent recording produced violations: %v", vs)
	}
}
