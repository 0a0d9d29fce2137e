package trace

import (
	"sync"
	"testing"
)

func TestLiveConcurrentRecording(t *testing.T) {
	const p = 8
	l := NewLive(p)
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Live has no clock of its own: each worker stamps its spans
			// from its own monotone counter, as a runtime worker stamps
			// them from the run's clock.
			for i := 0; i < 50; i++ {
				l.Add(w, Span{Kind: Compute, Start: float64(i), End: float64(i + 1), Work: 1, Task: i})
			}
			l.Mark(Marker{Kind: MarkRecover, Worker: w, Time: 50})
		}(w)
	}
	wg.Wait()
	tl := l.Timeline()
	if got := tl.UsefulWork(); got != p*50 {
		t.Fatalf("recorded work %v, want %v", got, p*50)
	}
	if len(tl.Marks) != p {
		t.Fatalf("recorded %d marks, want %d", len(tl.Marks), p)
	}
	if vs := Check(tl, nil); len(vs) != 0 {
		t.Fatalf("live recording breaks invariants: %v", vs)
	}
}
