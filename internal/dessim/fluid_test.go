package dessim

import (
	"math"
	"testing"
	"testing/quick"

	"nlfl/internal/platform"
	"nlfl/internal/stats"
	"nlfl/internal/trace"
)

func TestBoundedInfiniteEgressMatchesParallelLinks(t *testing.T) {
	p := mustPlatform(t, 1, 2, 4)
	chunks := []Chunk{
		{Worker: 0, Data: 10, Work: 5},
		{Worker: 1, Data: 6, Work: 8},
		{Worker: 2, Data: 3, Work: 2},
		{Worker: 0, Data: 4, Work: 1},
	}
	ref, err := RunSingleRound(p, chunks, ParallelLinks)
	if err != nil {
		t.Fatal(err)
	}
	fluid, err := RunSingleRoundBounded(p, chunks, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ref.Makespan-fluid.Makespan) > 1e-9 {
		t.Errorf("infinite egress: %v vs parallel links %v", fluid.Makespan, ref.Makespan)
	}
	if math.Abs(ref.CommVolume()-fluid.CommVolume()) > 1e-9 {
		t.Errorf("volumes differ: %v vs %v", fluid.CommVolume(), ref.CommVolume())
	}
	mustCheck(t, fluid)
}

func TestBoundedEgressSharing(t *testing.T) {
	// Two unit-bandwidth workers, egress 1: each transfer gets rate 1/2,
	// so 10 data units arrive at t=20 on both; compute 10 more.
	p := mustPlatform(t, 1, 1)
	chunks := []Chunk{
		{Worker: 0, Data: 10, Work: 10},
		{Worker: 1, Data: 10, Work: 10},
	}
	tl, err := RunSingleRoundBounded(p, chunks, 1)
	if err != nil {
		t.Fatal(err)
	}
	recv := tl.Spans[0][0]
	if recv.Kind != trace.Comm || math.Abs(recv.End-20) > 1e-9 {
		t.Errorf("shared receive should end at 20, got %+v", recv)
	}
	if math.Abs(tl.Makespan-30) > 1e-9 {
		t.Errorf("makespan = %v, want 30", tl.Makespan)
	}
}

func TestBoundedWaterFilling(t *testing.T) {
	// Workers with bandwidth 0.5 and 10, egress 2: the slow link caps at
	// 0.5, the fast one gets the remaining 1.5.
	pl, err := platform.New([]platform.Worker{
		{Speed: 1, Bandwidth: 0.5},
		{Speed: 1, Bandwidth: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	chunks := []Chunk{
		{Worker: 0, Data: 5, Work: 0}, // at 0.5: done at t=10
		{Worker: 1, Data: 6, Work: 0}, // at 1.5: done at t=4
	}
	tl, err := RunSingleRoundBounded(pl, chunks, 2)
	if err != nil {
		t.Fatal(err)
	}
	fast := tl.Spans[1][0]
	if math.Abs(fast.End-4) > 1e-9 {
		t.Errorf("fast transfer ends at %v, want 4", fast.End)
	}
	// After t=4 the slow transfer still runs at its cap 0.5: it had
	// 5-4·0.5 = 3 left → finishes at 4+6 = 10.
	slow := tl.Spans[0][0]
	if math.Abs(slow.End-10) > 1e-9 {
		t.Errorf("slow transfer ends at %v, want 10", slow.End)
	}
}

func TestBoundedZeroDataChunks(t *testing.T) {
	p := mustPlatform(t, 1)
	tl, err := RunSingleRoundBounded(p, []Chunk{
		{Worker: 0, Data: 0, Work: 5},
		{Worker: 0, Data: 0, Work: 3},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Makespan != 8 {
		t.Errorf("makespan = %v, want 8 (two instant deliveries, queued compute)", tl.Makespan)
	}
	mustCheck(t, tl)
}

func TestBoundedValidation(t *testing.T) {
	p := mustPlatform(t, 1)
	if _, err := RunSingleRoundBounded(p, nil, 0); err == nil {
		t.Error("zero egress should fail")
	}
	if _, err := RunSingleRoundBounded(p, []Chunk{{Worker: 3, Data: 1}}, 1); err == nil {
		t.Error("bad worker should fail")
	}
	if _, err := RunSingleRoundBounded(p, []Chunk{{Worker: 0, Data: -1}}, 1); err == nil {
		t.Error("negative data should fail")
	}
}

func TestBoundedMakespanMonotoneInEgress(t *testing.T) {
	r := stats.NewRNG(9)
	pl, err := platform.Generate(6, stats.Uniform{Lo: 0.5, Hi: 4}, r)
	if err != nil {
		t.Fatal(err)
	}
	chunks := make([]Chunk, 12)
	for i := range chunks {
		chunks[i] = Chunk{Worker: i % 6, Data: 1 + r.Float64()*5, Work: 1 + r.Float64()*5}
	}
	prev := math.Inf(1)
	for _, egress := range []float64{0.1, 0.5, 2, 8, math.Inf(1)} {
		tl, err := RunSingleRoundBounded(pl, chunks, egress)
		if err != nil {
			t.Fatal(err)
		}
		if tl.Makespan > prev+1e-9 {
			t.Errorf("makespan %v increased when egress grew to %v", tl.Makespan, egress)
		}
		prev = tl.Makespan
	}
}

// Property: the bounded model conserves volume/work, stays causal, and is
// never faster than the unconstrained parallel-links model.
func TestBoundedProperty(t *testing.T) {
	f := func(seed int64, nc uint8, egRaw uint8) bool {
		r := stats.NewRNG(seed)
		p := 1 + r.Intn(5)
		pl, err := platform.Generate(p, stats.Uniform{Lo: 0.5, Hi: 5}, r)
		if err != nil {
			return false
		}
		chunks := make([]Chunk, int(nc%20))
		totData, totWork := 0.0, 0.0
		for i := range chunks {
			chunks[i] = Chunk{Worker: r.Intn(p), Data: r.Float64() * 4, Work: r.Float64() * 4}
			totData += chunks[i].Data
			totWork += chunks[i].Work
		}
		egress := 0.2 + 10*float64(egRaw)/255
		tl, err := RunSingleRoundBounded(pl, chunks, egress)
		if err != nil {
			return false
		}
		ref, err := RunSingleRound(pl, chunks, ParallelLinks)
		if err != nil {
			return false
		}
		return math.Abs(tl.CommVolume()-totData) < 1e-6*(1+totData) &&
			math.Abs(tl.UsefulWork()-totWork) < 1e-6*(1+totWork) &&
			len(trace.Check(tl, nil)) == 0 &&
			tl.Makespan >= ref.Makespan-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
