package runtime

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	goruntime "runtime"
	"testing"
	"time"

	"nlfl/internal/faults"
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
// run's failure contract without hanging, on the fast path and on the
// chaos path: a worker panic fails the run typed, and a cancellation
// stops it.
func TestVirtualRunFailures(t *testing.T) {
	pl := snappedPlatform(t)
	const n = 64
	a, b := chaosVectors(t, n, 23)
	plan, err := PlanHom(pl, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, chaos := range []Chaos{{}, {SpeculateAfter: 0.01}} {
		ctx, cancel := context.WithCancel(context.Background())
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
			name := fmt.Sprintf("%s chaos=%v", tc.name, chaos.Enabled())
			done := make(chan error, 1)
			go func() {
				_, err := RunContext(ctx, plan, a, b, Options{
					Speeds: pl.Speeds(), WorkPerSecond: 2e6, Link: Link{ElemsPerSecond: 1e5},
					Chaos: chaos, Virtual: true, testHookChunkStart: tc.hook,
				})
				done <- err
			}()
			select {
			case err := <-done:
				if !errors.Is(err, tc.want) {
					t.Errorf("%s: got %v, want %v", name, err, tc.want)
				}
			case <-time.After(30 * time.Second):
				t.Fatalf("%s: virtual run hung", name)
			}
		}
		cancel()
	}
}

// TestVirtualChaosIsDeterministic runs one scenario per fault class on
// the virtual clock — crash mid-chunk, crash at 0, a straggler with
// speculation, a flaky link and a seeded coin-flip drop — twice each at
// GOMAXPROCS 1 and 4, and requires every run of a scenario to record the
// same timeline and recovery counters with the trace oracle clean. The
// mid-chunk crash must cut its Killed span exactly at the crash instant.
func TestVirtualChaosIsDeterministic(t *testing.T) {
	const (
		n       = 64
		crashAt = 0.002
	)
	pl := snappedPlatform(t)
	a, b := chaosVectors(t, n, 29)
	hom, err := PlanHom(pl, n)
	if err != nil {
		t.Fatal(err)
	}
	het, err := PlanHet(pl, n)
	if err != nil {
		t.Fatal(err)
	}
	// drop loses transfers to workers [0, upTo) started before until.
	drop := func(upTo int, prob, until float64) []faults.Event {
		var evs []faults.Event
		for w := 0; w < upTo; w++ {
			evs = append(evs, faults.Event{Kind: faults.LinkDrop, Worker: w, Time: 0, Until: until, DropProb: prob})
		}
		return evs
	}
	rows := []struct {
		name  string
		plan  *StrategyPlan
		link  Link
		chaos Chaos
	}{
		{"crash", het, Link{}, Chaos{Scenario: faults.SingleCrash(3, crashAt), MaxRetries: 4}},
		{"crash-t0", het, Link{}, Chaos{Scenario: faults.SingleCrash(3, 0), MaxRetries: 4}},
		{"straggler", hom, Link{}, Chaos{
			Scenario: faults.Scenario{Events: []faults.Event{
				{Kind: faults.Straggler, Worker: 0, Time: 0, Until: 10, Factor: 0.02},
			}},
			MaxRetries: 4, SpeculateAfter: 0.005,
		}},
		{"flaky-link", hom, Link{ElemsPerSecond: 1e6}, Chaos{
			Scenario: faults.Scenario{Events: drop(1, 1, 0.004)}, MaxRetries: 10, BackoffBase: 1e-3, BackoffMax: 4e-3,
		}},
		{"coin-flip-drop", hom, Link{}, Chaos{
			Scenario: faults.Scenario{Seed: 7, Events: drop(4, 0.5, 10)}, MaxRetries: 20, BackoffBase: 1e-4,
		}},
	}
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(0))
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var first *Report
			for _, procs := range []int{1, 1, 4, 4} {
				goruntime.GOMAXPROCS(procs)
				rep, err := Run(row.plan, a, b, Options{
					Speeds: pl.Speeds(), WorkPerSecond: 1e5, Burst: 1, VerifyEvery: 7,
					Link: row.link, Chaos: row.chaos, Virtual: true,
				})
				if err != nil {
					t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
				}
				auditChaos(t, rep, a, b)
				if first == nil {
					first = rep
					continue
				}
				if !reflect.DeepEqual(rep.Trace, first.Trace) {
					t.Fatalf("GOMAXPROCS=%d: timeline differs from the first run", procs)
				}
				counters := func(r *Report) [7]float64 {
					return [7]float64{float64(r.RetriedChunks), float64(r.SpeculativeWins), float64(r.DegradedWorkers),
						r.ReclaimedCells, r.WastedData, r.WastedWorkCells, r.DataVolume}
				}
				if counters(rep) != counters(first) {
					t.Fatalf("GOMAXPROCS=%d: counters %v, first run %v", procs, counters(rep), counters(first))
				}
			}
			switch row.name {
			case "crash":
				killed := false
				for _, s := range first.Trace.Spans[3] {
					if s.Outcome == trace.Killed {
						killed = true
						if s.End != crashAt {
							t.Errorf("Killed span ends at %v, want the crash instant %v", s.End, crashAt)
						}
					}
				}
				if !killed {
					t.Error("the crash landed between chunks: no Killed span to check")
				}
			case "straggler":
				if first.SpeculativeWins < 1 {
					t.Error("straggler scenario produced no speculative win")
				}
			case "flaky-link", "coin-flip-drop":
				if first.RetriedChunks < 1 {
					t.Error("drop scenario produced no retry")
				}
			default:
				if first.DegradedWorkers != 1 {
					t.Errorf("DegradedWorkers = %d, want 1", first.DegradedWorkers)
				}
			}
		})
	}
}
