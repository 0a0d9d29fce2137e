package runtime

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"nlfl/internal/matmul"
	"nlfl/internal/platform"
	"nlfl/internal/trace"
)

// TestVirtualRunIsReproducible runs demand-driven hom on the far-fast
// chain, where the relay volume depends on which worker claims each
// ownerless chunk, and requires every virtual run to record the same
// timeline, hand-out and product, with the trace oracle clean.
func TestVirtualRunIsReproducible(t *testing.T) {
	speeds := []float64{1, 1, 1, 1, 1, 11}
	pl, err := platform.FromSpeeds(speeds)
	if err != nil {
		t.Fatal(err)
	}
	const n = 128
	a, b := chaosVectors(t, n, 21)
	plan, err := PlanHom(pl, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, prefetch := range []bool{false, true} {
		var first *Report
		for run := 0; run < 5; run++ {
			rep, err := Run(plan, a, b, Options{
				Speeds: speeds, WorkPerSecond: 2e5, Burst: 20,
				Topology: UniformChain(len(speeds), 2e3), Prefetch: prefetch, Virtual: true,
			})
			if err != nil {
				t.Fatalf("prefetch=%v run %d: %v", prefetch, run, err)
			}
			if vs := trace.Check(rep.Trace, rep.Expect(1e-9)); len(vs) != 0 {
				t.Fatalf("prefetch=%v run %d: trace violations: %v", prefetch, run, vs)
			}
			if !matmul.VectorOuter(a, b).Equal(rep.Out, 0) {
				t.Fatalf("prefetch=%v run %d: product differs from the reference kernel", prefetch, run)
			}
			if first == nil {
				first = rep
				continue
			}
			if !reflect.DeepEqual(rep.Trace, first.Trace) || !reflect.DeepEqual(rep.PerWorkerData, first.PerWorkerData) ||
				rep.RelayVolume != first.RelayVolume {
				t.Fatalf("prefetch=%v run %d differs from run 0: relay %v vs %v, per-worker data %v vs %v",
					prefetch, run, rep.RelayVolume, first.RelayVolume, rep.PerWorkerData, first.PerWorkerData)
			}
		}
	}
}

// TestVirtualMakespanIsModeled pins the virtual clock's arithmetic. One
// worker with no network starts with a full bucket and then pays every
// cell at its rate, so the makespan is (N² − burst)/rate. Two equal
// workers on a star book their first transfers at instant 0, and the tie
// goes to worker 0: its window comes first on the shared port.
func TestVirtualMakespanIsModeled(t *testing.T) {
	const n, rate, burst = 64, 1e5, 100.0
	a, b := chaosVectors(t, n, 22)
	one, err := platform.FromSpeeds([]float64{1})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanHom(one, n)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(plan, a, b, Options{Speeds: []float64{1}, WorkPerSecond: rate, Burst: burst, Virtual: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := (n*n - burst) / rate; math.Abs(rep.Makespan-want) > 1e-12 {
		t.Errorf("one-worker makespan %v, want (N²−burst)/rate = %v", rep.Makespan, want)
	}

	rep, err = Run(gridPlan(t, n, 4), a, b, Options{
		Speeds: []float64{1, 1}, WorkPerSecond: rate, Burst: burst,
		Topology: Star{Aggregate: 1e4, Workers: 2}, Virtual: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	firstComm := func(w int) trace.Span {
		for _, s := range rep.Trace.Spans[w] {
			if s.Kind == trace.Comm {
				return s
			}
		}
		t.Fatalf("worker %d recorded no transfer", w)
		return trace.Span{}
	}
	c0, c1 := firstComm(0), firstComm(1)
	if c0.Start != 0 || c1.Start != c0.End {
		t.Errorf("first transfers: worker 0 [%v, %v], worker 1 [%v, %v]; want worker 0 at 0 and worker 1 right after it",
			c0.Start, c0.End, c1.Start, c1.End)
	}
}

// TestVirtualRunFailures checks that a virtual run keeps the wall-clock
// run's failure contract without hanging: Chaos is rejected, a worker
// panic fails the run typed, and a cancellation stops it.
func TestVirtualRunFailures(t *testing.T) {
	pl := snappedPlatform(t)
	const n = 64
	a, b := chaosVectors(t, n, 23)
	plan, err := PlanHom(pl, n)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(plan, a, b, Options{Speeds: pl.Speeds(), Virtual: true, Chaos: Chaos{SpeculateAfter: 1}})
	if err == nil || !strings.Contains(err.Error(), "Virtual cannot be combined with Chaos") {
		t.Errorf("Virtual+Chaos: got %v, want a rejection", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cases := []struct {
		name string
		hook func(w int, c Chunk)
		want error
	}{
		{"panic", func(w int, c Chunk) {
			if c.Task == 3 {
				panic("injected test panic")
			}
		}, ErrWorkerFailed},
		{"cancel", func(w int, c Chunk) {
			if c.Task == 3 {
				cancel()
			}
		}, context.Canceled},
	}
	for _, tc := range cases {
		done := make(chan error, 1)
		go func() {
			_, err := RunContext(ctx, plan, a, b, Options{
				Speeds: pl.Speeds(), WorkPerSecond: 2e6, Link: Link{ElemsPerSecond: 1e5},
				Virtual: true, testHookChunkStart: tc.hook,
			})
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, tc.want) {
				t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: virtual run hung", tc.name)
		}
	}
}
