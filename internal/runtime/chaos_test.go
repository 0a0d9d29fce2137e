package runtime

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"nlfl/internal/faults"
	"nlfl/internal/matmul"
	"nlfl/internal/platform"
	"nlfl/internal/stats"
	"nlfl/internal/trace"
)

func chaosVectors(t *testing.T, n int, seed int64) (a, b []float64) {
	t.Helper()
	r := stats.NewRNG(seed)
	return stats.SampleN(stats.Uniform{Lo: -1, Hi: 1}, r, n),
		stats.SampleN(stats.Uniform{Lo: -1, Hi: 1}, r, n)
}

// auditChaos checks everything a clean chaos run must satisfy: correct
// product, zero oracle violations (exactly-once armed), and the closed
// recovery ledger.
func auditChaos(t *testing.T, rep *Report, a, b []float64) {
	t.Helper()
	if want := matmul.VectorOuter(a, b); !want.Equal(rep.Out, 0) {
		t.Errorf("product differs from the reference kernel")
	}
	if vs := trace.Check(rep.Trace, rep.Expect(1e-9)); len(vs) != 0 {
		t.Errorf("trace violations: %v", vs)
	}
	if !rep.Chaos {
		t.Errorf("report not flagged as a chaos run")
	}
	if rep.ReplannedVolume < rep.PlanVolume {
		t.Errorf("replanned volume %v below the plan volume %v — a re-plan never ships less",
			rep.ReplannedVolume, rep.PlanVolume)
	}
	if rep.CommittedVolume != rep.ReplannedVolume {
		t.Errorf("committed volume %v ≠ survivor-re-planned closed form %v", rep.CommittedVolume, rep.ReplannedVolume)
	}
	if rep.DataVolume != rep.CommittedVolume+rep.WastedData {
		t.Errorf("shipping ledger leaks: %v ≠ %v + %v", rep.DataVolume, rep.CommittedVolume, rep.WastedData)
	}
}

func TestChaosCrashHetReplansOntoSurvivors(t *testing.T) {
	pl := snappedPlatform(t)
	const n = 96
	a, b := chaosVectors(t, n, 11)
	plan, err := PlanHet(pl, n)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(plan, a, b, Options{
		Speeds:        pl.Speeds(),
		WorkPerSecond: 1e5,
		// Burst 1: no banked credit, so every worker pays honest token
		// time and the crash instant lands mid-chunk, not after an
		// instant unthrottled drain.
		Burst:       1,
		VerifyEvery: 31,
		Chaos: Chaos{
			Scenario:   faults.SingleCrash(3, 0.002),
			MaxRetries: 4,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	auditChaos(t, rep, a, b)
	if rep.DegradedWorkers != 1 {
		t.Errorf("DegradedWorkers = %d, want 1", rep.DegradedWorkers)
	}
	if rep.ReclaimedCells <= 0 {
		t.Errorf("ReclaimedCells = %v, want > 0", rep.ReclaimedCells)
	}
	// The dead worker's rectangle went to the survivors, so the measured
	// committed traffic must exceed the fault-free plan.
	if rep.ReplannedVolume <= rep.PlanVolume {
		t.Errorf("replanned volume %v did not grow past the plan volume %v", rep.ReplannedVolume, rep.PlanVolume)
	}
}

// TestChaosCrashAtTimeZero is the edge case where the victim dies before
// claiming its first chunk: its entire owned backlog is reclaimed before
// any commit, and the survivors still finish the whole domain.
func TestChaosCrashAtTimeZero(t *testing.T) {
	pl := snappedPlatform(t)
	const n = 64
	a, b := chaosVectors(t, n, 12)
	plan, err := PlanHet(pl, n)
	if err != nil {
		t.Fatal(err)
	}
	owned := 0
	for _, c := range plan.Chunks {
		if c.Owner == 3 {
			owned += c.Cells()
		}
	}
	if owned == 0 {
		t.Fatal("het plan assigns no cells to worker 3; test is vacuous")
	}
	rep, err := Run(plan, a, b, Options{
		Speeds:        pl.Speeds(),
		WorkPerSecond: 2e5,
		VerifyEvery:   17,
		Chaos: Chaos{
			Scenario:   faults.SingleCrash(3, 0),
			MaxRetries: 4,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	auditChaos(t, rep, a, b)
	if got := int(rep.ReclaimedCells); got != owned {
		t.Errorf("ReclaimedCells = %d, want the victim's whole backlog %d", got, owned)
	}
	if rep.PerWorkerCells[3] != 0 {
		t.Errorf("dead worker still computed %v cells", rep.PerWorkerCells[3])
	}
}

func TestChaosCrashWithoutRetryBudgetFailsTyped(t *testing.T) {
	pl := snappedPlatform(t)
	const n = 64
	a, b := chaosVectors(t, n, 13)
	plan, err := PlanHet(pl, n)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := Run(plan, a, b, Options{
			Speeds:        pl.Speeds(),
			WorkPerSecond: 2e5,
			Chaos:         Chaos{Scenario: faults.SingleCrash(3, 0)},
		})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrWorkerFailed) {
			t.Fatalf("got %v, want ErrWorkerFailed", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run hung instead of returning ErrWorkerFailed")
	}
}

// TestRunWorkerPanicReturnsErrWorkerFailed is the regression test for
// the pre-chaos bug: a panicking worker goroutine crashed the whole
// process (goroutine panics are fatal), so Run could never report it.
// The pool must now contain the panic and surface a typed error.
func TestRunWorkerPanicReturnsErrWorkerFailed(t *testing.T) {
	pl := snappedPlatform(t)
	const n = 64
	a, b := chaosVectors(t, n, 14)
	for _, chaosOn := range []bool{false, true} {
		plan, err := PlanHom(pl, n)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{
			Speeds:        pl.Speeds(),
			WorkPerSecond: 2e6,
			// Key on the task, not the worker: under goroutine scheduling
			// jitter a fixed worker may never claim a chunk, but some
			// worker always claims task 0.
			testHookChunkStart: func(w int, c Chunk) {
				if c.Task == 0 {
					panic("injected test panic")
				}
			},
		}
		if chaosOn {
			opts.Chaos = Chaos{SpeculateAfter: 1, MaxRetries: 1}
		}
		done := make(chan error, 1)
		go func() {
			_, err := Run(plan, a, b, opts)
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, ErrWorkerFailed) {
				t.Fatalf("chaos=%v: got %v, want ErrWorkerFailed", chaosOn, err)
			}
			if !strings.Contains(err.Error(), "panicked") {
				t.Fatalf("chaos=%v: error %q does not mention the panic", chaosOn, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("chaos=%v: run hung after worker panic", chaosOn)
		}
	}
}

func TestRunContextCancellation(t *testing.T) {
	pl := snappedPlatform(t)
	const n = 128
	a, b := chaosVectors(t, n, 15)
	for _, chaosOn := range []bool{false, true} {
		plan, err := PlanHomK(pl, n, 0.01, 0)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Speeds: pl.Speeds(), WorkPerSecond: 2e3} // ~8 s fault-free
		if chaosOn {
			opts.Chaos = Chaos{SpeculateAfter: 10, MaxRetries: 1}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		start := time.Now()
		_, err = RunContext(ctx, plan, a, b, opts)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("chaos=%v: got %v, want DeadlineExceeded", chaosOn, err)
		}
		if el := time.Since(start); el > 5*time.Second {
			t.Fatalf("chaos=%v: cancellation took %v", chaosOn, el)
		}
	}
}

func TestChaosStragglerSpeculation(t *testing.T) {
	pl, err := platform.FromSpeeds([]float64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	a, b := chaosVectors(t, n, 16)
	plan, err := PlanHom(pl, n)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(plan, a, b, Options{
		Speeds:        pl.Speeds(),
		WorkPerSecond: 2e5,
		Burst:         1,
		VerifyEvery:   13,
		Chaos: Chaos{
			Scenario: faults.Scenario{Events: []faults.Event{
				{Kind: faults.Straggler, Worker: 0, Time: 0, Until: 10, Factor: 0.02},
			}},
			MaxRetries:     4,
			SpeculateAfter: 0.005,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	auditChaos(t, rep, a, b)
	if rep.SpeculativeWins < 1 {
		t.Errorf("SpeculativeWins = %d, want ≥ 1 (straggler held chunks 50× past the threshold)", rep.SpeculativeWins)
	}
	if rep.WastedWorkCells <= 0 {
		t.Errorf("WastedWorkCells = %v, want > 0 (the straggler's losing copies)", rep.WastedWorkCells)
	}
}

// TestLosingCopyNeverWrites pins commit-then-fill without timing luck.
// Workers 0 and 2 stall on their first chunk while worker 1 drains the
// rest of the queue and then speculates on both stalled leases. Its
// second speculative start proves its first speculative copy has
// committed, and only then are the stalled holders released: one of them
// now holds a chunk that is already committed, so it must record a
// Wasted span and leave the output alone. Under -race, a losing copy that
// wrote before resolving the commit would race the winner's writes.
func TestLosingCopyNeverWrites(t *testing.T) {
	pl, err := platform.FromSpeeds([]float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	const n = 48
	a, b := chaosVectors(t, n, 21)
	var (
		mu       sync.Mutex
		first    = map[int]int{} // task → worker it was first issued to
		arrived  = map[int]bool{}
		allIn    = make(chan struct{})
		release  = make(chan struct{})
		specs    int
		specTask int
		loser    int
	)
	hook := func(w int, c Chunk) {
		mu.Lock()
		holder, seen := first[c.Task]
		if !seen {
			first[c.Task] = w
		}
		firstCall := !arrived[w]
		arrived[w] = true
		if firstCall && len(arrived) == 3 {
			close(allIn)
		}
		if seen && holder != w {
			specs++
			switch specs {
			case 1:
				specTask, loser = c.Task, holder
			case 2:
				close(release)
			}
		}
		mu.Unlock()
		if !firstCall {
			return
		}
		// Every worker leases its first chunk before any proceeds, so all
		// three first chunks are fresh leases, not speculative copies.
		<-allIn
		if w == 1 {
			return
		}
		select {
		case <-release:
		case <-time.After(30 * time.Second):
			t.Error("worker 1 never started its second speculative copy")
		}
	}
	plan := gridPlan(t, n, 4)
	rep, err := Run(plan, a, b, Options{
		Speeds: pl.Speeds(),
		// ~1.4 ms of honest token time per 12×12 chunk (Burst 1 banks no
		// credit), so the released holder and worker 1's second
		// speculative copy are in flight together, with no lock between
		// their fills for the race detector to order them by.
		WorkPerSecond:      1e5,
		Burst:              1,
		Chaos:              Chaos{SpeculateAfter: 1e-9},
		testHookChunkStart: hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	auditChaos(t, rep, a, b)
	if rep.SpeculativeWins < 1 {
		t.Errorf("SpeculativeWins = %d, want ≥ 1", rep.SpeculativeWins)
	}
	ok := make([]int, len(plan.Chunks))
	wasted := false
	for w, spans := range rep.Trace.Spans {
		for _, s := range spans {
			switch {
			case s.Kind != trace.Compute:
			case s.Outcome == trace.OK:
				ok[s.Task]++
			case s.Outcome == trace.Wasted && s.Task == specTask && w == loser:
				wasted = true
			}
		}
	}
	for task, k := range ok {
		if k != 1 {
			t.Errorf("task %d has %d OK Compute spans, want 1", task, k)
		}
	}
	if !wasted {
		t.Errorf("no Wasted Compute span for task %d on its losing holder, worker %d", specTask, loser)
	}
}

func TestChaosFlakyLinkRetriesWithBackoff(t *testing.T) {
	pl := snappedPlatform(t)
	const n = 64
	a, b := chaosVectors(t, n, 17)
	plan, err := PlanHom(pl, n)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(plan, a, b, Options{
		Speeds:        pl.Speeds(),
		WorkPerSecond: 2e5,
		Burst:         1,
		VerifyEvery:   19,
		Chaos: Chaos{
			Scenario: faults.Scenario{Events: []faults.Event{
				// Every transfer to worker 0 inside the window is lost —
				// deterministic retries regardless of the drop RNG.
				{Kind: faults.LinkDrop, Worker: 0, Time: 0, Until: 0.004, DropProb: 1},
			}},
			MaxRetries:  10,
			BackoffBase: 1e-3,
			BackoffMax:  4e-3,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	auditChaos(t, rep, a, b)
	if rep.RetriedChunks < 1 {
		t.Errorf("RetriedChunks = %d, want ≥ 1 (prob-1 drop window at start)", rep.RetriedChunks)
	}
	if rep.WastedData <= 0 {
		t.Errorf("WastedData = %v, want > 0 (dropped payloads)", rep.WastedData)
	}
}

func TestChaosFlakyLinkBudgetExhaustedFailsTyped(t *testing.T) {
	pl := snappedPlatform(t)
	const n = 64
	a, b := chaosVectors(t, n, 18)
	plan, err := PlanHom(pl, n)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(plan, a, b, Options{
		Speeds:        pl.Speeds(),
		WorkPerSecond: 2e5,
		Burst:         1,
		Chaos: Chaos{
			Scenario: faults.Scenario{Events: []faults.Event{
				{Kind: faults.LinkDrop, Worker: 0, Time: 0, Until: 100, DropProb: 1},
			}},
			MaxRetries:  1,
			BackoffBase: 1e-4,
			BackoffMax:  1e-4,
		},
	})
	if !errors.Is(err, ErrTransferFailed) {
		t.Fatalf("got %v, want ErrTransferFailed", err)
	}
}

func TestChaosTransientOutageAndLinkSlow(t *testing.T) {
	pl := snappedPlatform(t)
	const n = 64
	a, b := chaosVectors(t, n, 19)
	plan, err := PlanHomK(pl, n, 0.01, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(plan, a, b, Options{
		Speeds:        pl.Speeds(),
		WorkPerSecond: 2e5,
		Burst:         1,
		VerifyEvery:   23,
		Link:          Link{ElemsPerSecond: 5e6},
		Chaos: Chaos{
			Scenario: faults.Scenario{Events: []faults.Event{
				{Kind: faults.Transient, Worker: 1, Time: 0.001, Until: 0.004},
				{Kind: faults.LinkSlow, Worker: 2, Time: 0, Until: 0.01, Factor: 0.25},
			}},
			MaxRetries: 2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	auditChaos(t, rep, a, b)
}

// TestChaosPrefetchRejected documents the one unsupported combination.
func TestChaosPrefetchRejected(t *testing.T) {
	pl := snappedPlatform(t)
	const n = 32
	a, b := chaosVectors(t, n, 20)
	plan, err := PlanHom(pl, n)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(plan, a, b, Options{
		Speeds:   pl.Speeds(),
		Prefetch: true,
		Chaos:    Chaos{SpeculateAfter: 0.01},
	})
	if err == nil || !strings.Contains(err.Error(), "Prefetch") {
		t.Fatalf("got %v, want a Prefetch/Chaos rejection", err)
	}
}

// TestChaosPropertySweep drives ≥200 randomized crash/straggler/flaky
// schedules across all three strategies and asserts the exactly-once
// invariant (via the trace oracle), the correct product, and the closed
// recovery ledger on every single run.
func TestChaosPropertySweep(t *testing.T) {
	const (
		cases = 210
		n     = 24
	)
	pl, err := platform.FromSpeeds([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	a, b := chaosVectors(t, n, 21)
	want := matmul.VectorOuter(a, b)

	var degraded, specWins, retried int
	for seed := 0; seed < cases; seed++ {
		var plan *StrategyPlan
		var err error
		switch seed % 3 {
		case 0:
			plan, err = PlanHom(pl, n)
		case 1:
			plan, err = PlanHomK(pl, n, 0.01, 0)
		default:
			plan, err = PlanHet(pl, n)
		}
		if err != nil {
			t.Fatal(err)
		}
		ch := Chaos{MaxRetries: 8, BackoffBase: 2e-4, BackoffMax: 1e-3}
		switch (seed / 3) % 3 {
		case 0:
			sc, err := faults.RandomCrashes(3, 1, 0.002, int64(seed))
			if err != nil {
				t.Fatal(err)
			}
			ch.Scenario = sc
		case 1:
			sc, err := faults.RandomStragglers(3, 2, 0.1, 0.0002, 0.002, int64(seed))
			if err != nil {
				t.Fatal(err)
			}
			ch.Scenario = sc
			ch.SpeculateAfter = 0.001
		default:
			crash, err := faults.RandomCrashes(3, 1, 0.0015, int64(seed))
			if err != nil {
				t.Fatal(err)
			}
			flaky, err := faults.FlakyLinks(3, 1, 0.5, 0, 0.001, int64(seed))
			if err != nil {
				t.Fatal(err)
			}
			ch.Scenario = faults.Scenario{
				Events: append(crash.Events, flaky.Events...),
				Seed:   int64(seed),
			}
			ch.SpeculateAfter = 0.002
		}
		rep, err := Run(plan, a, b, Options{
			Speeds:        pl.Speeds(),
			WorkPerSecond: 2e5,
			Burst:         1,
			Chaos:         ch,
		})
		if err != nil {
			t.Fatalf("seed %d (%s): %v", seed, plan.Strategy, err)
		}
		if !want.Equal(rep.Out, 0) {
			t.Fatalf("seed %d (%s): wrong product", seed, plan.Strategy)
		}
		if vs := trace.Check(rep.Trace, rep.Expect(1e-9)); len(vs) != 0 {
			t.Fatalf("seed %d (%s): trace violations: %v", seed, plan.Strategy, vs)
		}
		if rep.CommittedVolume != rep.ReplannedVolume {
			t.Fatalf("seed %d (%s): committed %v ≠ replanned %v", seed, plan.Strategy, rep.CommittedVolume, rep.ReplannedVolume)
		}
		if rep.DataVolume != rep.CommittedVolume+rep.WastedData {
			t.Fatalf("seed %d (%s): shipping ledger leaks", seed, plan.Strategy)
		}
		degraded += rep.DegradedWorkers
		specWins += rep.SpeculativeWins
		retried += rep.RetriedChunks
	}
	// The sweep must actually exercise the machinery, not dodge it.
	if degraded == 0 {
		t.Errorf("no crash was realized across %d cases", cases)
	}
	if specWins == 0 {
		t.Errorf("no speculative win across %d cases", cases)
	}
	if retried == 0 {
		t.Errorf("no transfer retry across %d cases", cases)
	}
}
