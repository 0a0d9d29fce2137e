package runtime

import (
	"math"
	"sort"
	"sync"
	"testing"

	"nlfl/internal/matmul"
	"nlfl/internal/platform"
	"nlfl/internal/trace"
)

// TestChainPrefetchRelayRace drives prefetch over a daisy-chain so
// several workers book hop windows and append relay records into
// trace.Live concurrently. Run under -race; the oracle then confirms
// the concurrent bookings still never oversubscribed any hop.
func TestChainPrefetchRelayRace(t *testing.T) {
	pl, err := platform.FromSpeeds([]float64{1, 1, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	const n = 48
	a, b := chaosVectors(t, n, 41)
	want := matmul.VectorOuter(a, b)
	plan, err := PlanHet(pl, n)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(plan, a, b, Options{
		Speeds:        pl.Speeds(),
		WorkPerSecond: 5e5,
		Topology:      UniformChain(len(pl.Speeds()), 5e5),
		Prefetch:      true,
		VerifyEvery:   101,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equal(rep.Out, 0) {
		t.Fatal("wrong product")
	}
	if rep.RelayVolume <= 0 {
		t.Fatal("no relay traffic recorded")
	}
	if vs := trace.Check(rep.Trace, rep.Expect(1e-9)); len(vs) != 0 {
		t.Fatalf("trace violations: %v", vs)
	}
}

// TestTwoSourceConcurrentBookingRace hammers netLink.book from one
// goroutine per worker and then replays every booked window against the
// source capacities: windows on one edge must never overlap (each source
// is a serial port) and the volume ledger must close.
func TestTwoSourceConcurrentBookingRace(t *testing.T) {
	const (
		workers  = 8
		perW     = 150
		elems    = 100.0
		rate0    = 1e6
		rate1    = 2e6
		overlapS = 1e-9
	)
	clk := NewWallClock(workers)
	topo := SplitTwoSource(workers, rate0, rate1)
	net := newNetLink(topo, workers, clk)
	type win struct {
		edge       int
		start, end float64
	}
	wins := make([][]win, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				del, relays := net.book(w, elems)
				if len(relays) != 0 {
					t.Errorf("worker %d: circuit booking returned relays", w)
					return
				}
				wins[w] = append(wins[w], win{del.edge, del.start, del.end})
			}
		}(w)
	}
	wg.Wait()

	caps := []float64{rate0, rate1}
	byEdge := make([][]win, 2)
	for w, ws := range wins {
		wantEdge := topo.Assign[w]
		for _, x := range ws {
			if x.edge != wantEdge {
				t.Fatalf("worker %d booked edge %d, want %d", w, x.edge, wantEdge)
			}
			byEdge[x.edge] = append(byEdge[x.edge], x)
		}
	}
	for e, ws := range byEdge {
		if len(ws) == 0 {
			t.Fatalf("edge %d saw no bookings", e)
		}
		sort.Slice(ws, func(i, j int) bool { return ws[i].start < ws[j].start })
		for i, x := range ws {
			if dur := x.end - x.start; math.Abs(dur-elems/caps[e]) > overlapS {
				t.Fatalf("edge %d window %d lasts %v, want %v", e, i, dur, elems/caps[e])
			}
			if i > 0 && x.start < ws[i-1].end-overlapS {
				t.Fatalf("edge %d windows overlap: [%v,%v] then [%v,%v]",
					e, ws[i-1].start, ws[i-1].end, x.start, x.end)
			}
		}
	}
	reports := net.edgeReports(clk.Now())
	if len(reports) != 2 {
		t.Fatalf("got %d edge reports, want 2", len(reports))
	}
	for e, er := range reports {
		booked := elems * float64(len(byEdge[e]))
		if math.Abs(er.Volume-booked) > 1e-6 {
			t.Fatalf("edge %d volume ledger %v ≠ booked %v", e, er.Volume, booked)
		}
	}
}
