package faults

import (
	"math"
	"sync"
	"testing"

	"nlfl/internal/dessim"
	"nlfl/internal/stats"
	"nlfl/internal/trace"
)

func mustCompile(t *testing.T, sc Scenario, p int) *Table {
	t.Helper()
	tab, err := sc.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestTableFactors(t *testing.T) {
	tab := mustCompile(t, Scenario{Events: []Event{
		{Kind: Straggler, Worker: 0, Time: 2, Until: 4, Factor: 0.5},
		{Kind: Straggler, Worker: 0, Time: 1, Until: 3, Factor: 0.5},
		{Kind: LinkSlow, Worker: 1, Time: 0, Until: 2, Factor: 0.25},
	}}, 2)
	cases := []struct {
		w    int
		t    float64
		want float64
	}{
		{0, 0.5, 1},    // before any window
		{0, 1.5, 0.5},  // first window only
		{0, 2.5, 0.25}, // overlap multiplies
		{0, 3.5, 0.5},  // second window only
		{0, 4.0, 1},    // Until is exclusive
	}
	for _, c := range cases {
		if got := tab.ComputeScale(c.w, c.t); got != c.want {
			t.Errorf("ComputeScale(%d, %v) = %v, want %v", c.w, c.t, got, c.want)
		}
	}
	if got := tab.LinkScale(1, 1); got != 0.25 {
		t.Errorf("LinkScale = %v, want 0.25", got)
	}
	if got := tab.LinkScale(0, 1); got != 1 {
		t.Errorf("unaffected worker's link factor = %v, want 1", got)
	}
	if got := tab.ComputeScale(1, 1); got != 1 {
		t.Errorf("a LinkSlow window slowed compute: %v", got)
	}
}

// TestEmptyTableIsInert pins what every clean fleet job relies on when
// it shares the table compiled from the empty scenario: no worker ever
// crashes or pauses, no transfer drops — without a single draw from the
// seeded RNG — and compute and link scales are exactly 1.
func TestEmptyTableIsInert(t *testing.T) {
	const seed = 3
	tab := mustCompile(t, Scenario{Seed: seed}, 3)
	for w := 0; w < 3; w++ {
		if at := tab.CrashAt(w); !math.IsInf(at, 1) {
			t.Errorf("worker %d crashes at %v", w, at)
		}
		for _, at := range []float64{0, 0.5, 1e9} {
			if tab.Drop(w, at) {
				t.Errorf("Drop(%d, %v) lost a transfer", w, at)
			}
			if until, paused := tab.PausedUntil(w, at); paused {
				t.Errorf("PausedUntil(%d, %v) paused until %v", w, at, until)
			}
			if s := tab.ComputeScale(w, at); s != 1 {
				t.Errorf("ComputeScale(%d, %v) = %v, want exactly 1", w, at, s)
			}
			if s := tab.LinkScale(w, at); s != 1 {
				t.Errorf("LinkScale(%d, %v) = %v, want exactly 1", w, at, s)
			}
		}
	}
	if got, want := tab.rng.Float64(), stats.NewRNG(seed).Float64(); got != want {
		t.Errorf("the empty table drew from its RNG: next draw %v, want the seed's first %v", got, want)
	}
}

func TestTableCompileValidates(t *testing.T) {
	for _, e := range []Event{
		{Kind: Straggler, Worker: 0, Time: -1, Until: 2, Factor: 1},
		{Kind: Straggler, Worker: 0, Time: 2, Until: 2, Factor: 1},
		{Kind: Straggler, Worker: 0, Time: 3, Until: 2, Factor: 1},
		{Kind: Straggler, Worker: 0, Time: 0, Until: 1, Factor: -0.5},
		{Kind: LinkSlow, Worker: 0, Time: math.NaN(), Until: 1, Factor: 1},
		{Kind: Straggler, Worker: 5, Time: 0, Until: 1, Factor: 1},
	} {
		if _, err := (Scenario{Events: []Event{e}}).Compile(1); err == nil {
			t.Errorf("event %+v should be rejected", e)
		}
	}
}

func TestTableCrashAndOutage(t *testing.T) {
	// Worker 1: permanent crash at t=5 (the later duplicate changes
	// nothing). Worker 2: transient outage [2,4).
	tab := mustCompile(t, Scenario{Events: []Event{
		{Kind: Crash, Worker: 1, Time: 7},
		{Kind: Crash, Worker: 1, Time: 5},
		{Kind: Transient, Worker: 2, Time: 2, Until: 4},
	}}, 3)
	if tab.CrashAt(1) != 5 || !math.IsInf(tab.CrashAt(0), 1) || !math.IsInf(tab.CrashAt(2), 1) {
		t.Errorf("crash instants = %v %v %v, want +Inf 5 +Inf", tab.CrashAt(0), tab.CrashAt(1), tab.CrashAt(2))
	}
	if until, paused := tab.PausedUntil(2, 3); !paused || until != 4 {
		t.Errorf("PausedUntil(2, 3) = %v, %v; want 4, true", until, paused)
	}
	if _, paused := tab.PausedUntil(2, 4); paused {
		t.Error("outage end is exclusive")
	}
	if tab.speed(1, 4.9) != 1 || tab.speed(1, 5) != 0 || tab.speed(2, 3) != 0 || tab.speed(2, 4) != 1 {
		t.Error("speed profile wrong across crash and outage")
	}
}

func TestTableSurvivorPlatform(t *testing.T) {
	p := testPlatform(t, 1, 2, 3)
	tab := mustCompile(t, Scenario{Events: []Event{
		{Kind: Crash, Worker: 1, Time: 5},
		{Kind: Transient, Worker: 2, Time: 2, Until: 4},
	}}, 3)
	if _, idx, err := tab.SurvivorPlatform(p, 3); err != nil || len(idx) != 3 {
		t.Errorf("survivors at 3 = %v (%v): a transient outage is not a crash", idx, err)
	}
	sub, idx, err := tab.SurvivorPlatform(p, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 2 || idx[0] != 0 || idx[1] != 2 || sub.Worker(1).Speed != 3 {
		t.Errorf("survivors at 6 = %v (speed %v), want [0 2] at speed 3", idx, sub.Worker(1).Speed)
	}
	dead := mustCompile(t, Scenario{Events: []Event{
		{Kind: Crash, Worker: 0, Time: 0},
		{Kind: Crash, Worker: 1, Time: 0},
		{Kind: Crash, Worker: 2, Time: 0},
	}}, 3)
	if _, _, err := dead.SurvivorPlatform(p, 1); err == nil {
		t.Error("no survivors should error")
	}
	if _, _, err := tab.SurvivorPlatform(testPlatform(t, 1), 0); err == nil {
		t.Error("size mismatch should error")
	}
}

func TestTableIntegrateWork(t *testing.T) {
	p := testPlatform(t, 2, 1)
	tab := mustCompile(t, Scenario{Events: []Event{
		// Worker 0 at speed 2, halved on [1,3): 4 units starting at 0
		// run 1s at rate 2 (2 units), then 2 more units at rate 1 → t=3.
		{Kind: Straggler, Worker: 0, Time: 1, Until: 3, Factor: 0.5},
		{Kind: Crash, Worker: 1, Time: 10},
	}}, 2)
	if got := tab.IntegrateWork(p, 0, 0, 4); math.Abs(got-3) > 1e-12 {
		t.Errorf("IntegrateWork = %v, want 3", got)
	}
	// Zero work completes instantly; a nominal stretch is linear.
	if got := tab.IntegrateWork(p, 1, 7, 0); got != 7 {
		t.Errorf("zero work finish = %v, want 7", got)
	}
	if got := tab.IntegrateWork(p, 1, 2, 5); math.Abs(got-7) > 1e-12 {
		t.Errorf("nominal finish = %v, want 7", got)
	}
	// Crashed at 10: starvation returns +Inf, work that fits completes.
	if got := tab.IntegrateWork(p, 1, 9, 100); !math.IsInf(got, 1) {
		t.Errorf("starved finish = %v, want +Inf", got)
	}
	if got := tab.IntegrateWork(p, 1, 9, 1); math.Abs(got-10) > 1e-12 {
		t.Errorf("finish before crash = %v, want 10", got)
	}
	if got := tab.WorkBetween(p, 0, 0, 3); math.Abs(got-4) > 1e-12 {
		t.Errorf("WorkBetween = %v, want 4", got)
	}
	if got := tab.WorkBetween(p, 1, 9, 20); math.Abs(got-1) > 1e-12 {
		t.Errorf("WorkBetween across the crash = %v, want 1", got)
	}
}

func TestTableIntegrateWorkAcrossStragglerEdge(t *testing.T) {
	// Speed 2, ×0.5 from t=3 on: 10 work from t=1 runs [1,3) at rate 2
	// (4 done), then 6 at rate 1 → finishes at 9.
	p := testPlatform(t, 2)
	tab := mustCompile(t, Scenario{Events: []Event{
		{Kind: Straggler, Worker: 0, Time: 3, Until: math.Inf(1), Factor: 0.5},
	}}, 1)
	if got := tab.IntegrateWork(p, 0, 1, 10); math.Abs(got-9) > 1e-12 {
		t.Errorf("finish = %v, want 9", got)
	}
	if tab.IntegrateWork(p, 0, 4, 0) != 4 {
		t.Error("zero work should finish at start")
	}
}

// TestTableDropRace shares one table between goroutines: which transfer
// consumes which flip depends on arrival order, but the flip sequence
// does not, so the drop count over a fixed number of covered calls is
// the sequential run's.
func TestTableDropRace(t *testing.T) {
	sc := Scenario{Seed: 42, Events: []Event{
		{Kind: LinkDrop, Worker: 0, Time: 0, Until: 1, DropProb: 0.3},
		{Kind: LinkDrop, Worker: 1, Time: 0, Until: 1, DropProb: 0.3},
	}}
	const goroutines, calls = 8, 500
	count := func(tab *Table, w, n int) int {
		drops := 0
		for i := 0; i < n; i++ {
			if tab.Drop(w, 0.5) {
				drops++
			}
		}
		return drops
	}
	want := count(mustCompile(t, sc, 2), 0, goroutines*calls)
	if want == 0 || want == goroutines*calls {
		t.Fatalf("sequential run dropped %d of %d: the coin is not flipping", want, goroutines*calls)
	}
	tab := mustCompile(t, sc, 2)
	var mu sync.Mutex
	got := 0
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			n := count(tab, w, calls)
			if tab.Drop(w, 1) { // outside every window: no flip
				t.Error("drop outside its window")
			}
			mu.Lock()
			got += n
			mu.Unlock()
		}(g % 2)
	}
	wg.Wait()
	if got != want {
		t.Errorf("concurrent drops = %d, sequential = %d", got, want)
	}
}

// TestStragglerExecutorsUnderOracle runs a mid-run slowdown (worker 0
// ×0.2 and worker 2 ×0.5 from t=2) through both executors of the
// package under the trace oracle: every chunk's work is committed
// exactly once under its own task id, and the traced comm volume is what
// the schedule shipped.
func TestStragglerExecutorsUnderOracle(t *testing.T) {
	p := testPlatform(t, 1, 2.5, 4)
	chunks := []dessim.Chunk{
		{Worker: 0, Data: 3, Work: 2},
		{Worker: 1, Data: 5, Work: 7},
		{Worker: 2, Data: 2, Work: 9},
		{Worker: 0, Data: 1, Work: 4},
		{Worker: 1, Data: 0, Work: 3},
		{Worker: 2, Data: 4, Work: 1},
	}
	tasks := make([]dessim.Task, len(chunks))
	work, data := 0.0, 0.0
	for i, ch := range chunks {
		tasks[i] = dessim.Task{Data: ch.Data, Work: ch.Work}
		work += ch.Work
		data += ch.Data
	}
	sc := Scenario{Events: []Event{
		{Kind: Straggler, Worker: 0, Time: 2, Until: math.Inf(1), Factor: 0.2},
		{Kind: Straggler, Worker: 2, Time: 2, Until: math.Inf(1), Factor: 0.5},
	}}
	rows := []struct {
		name string
		run  func() (*trace.Timeline, error)
	}{
		{"single-round", func() (*trace.Timeline, error) {
			rep, err := RunSingleRoundUnderFaults(p, chunks, sc)
			if err != nil {
				return nil, err
			}
			return rep.Trace, nil
		}},
		{"demand-driven", func() (*trace.Timeline, error) {
			rep, err := RunResilientDemandDriven(p, tasks, sc, ResilientOptions{})
			if err != nil {
				return nil, err
			}
			return rep.Trace, nil
		}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			tl, err := r.run()
			if err != nil {
				t.Fatal(err)
			}
			if err := trace.Must(trace.Check(tl, &trace.Expect{
				HasWork:       true,
				TotalWork:     work,
				ProcessedWork: work,
				HasComm:       true,
				ShippedData:   data,
				ExactlyOnce:   true,
			})); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestStragglerShiftsDemandDrivenTail(t *testing.T) {
	// Two equal workers; worker 0 drops to 1% speed at t=5. The demand-
	// driven pool must route the tail to worker 1.
	p := testPlatform(t, 1, 1)
	sc := Scenario{Events: []Event{
		{Kind: Straggler, Worker: 0, Time: 5, Until: math.Inf(1), Factor: 0.01},
	}}
	rep, err := RunResilientDemandDriven(p, uniformTasks(20, 0, 1), sc, ResilientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	counts := rep.TasksPerWorker
	if counts[0]+counts[1] != 20 {
		t.Fatalf("counts %v", counts)
	}
	// Without the slowdown it would be 10/10; with it, worker 1 does the
	// bulk.
	if counts[1] < 13 {
		t.Errorf("healthy worker got %d tasks, expected most of the tail", counts[1])
	}
	if err := trace.Must(trace.Check(rep.Trace, &trace.Expect{ExactlyOnce: true})); err != nil {
		t.Error(err)
	}
}

func TestCrashedAtZeroWorkerRetires(t *testing.T) {
	// Worker 0 is down from t=0; worker 1 does everything.
	p := testPlatform(t, 1, 1)
	rep, err := RunResilientDemandDriven(p, uniformTasks(6, 0, 1), SingleCrash(0, 0), ResilientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Trace.Spans[0]) != 0 {
		t.Errorf("crashed worker recorded intervals: %v", rep.Trace.Spans[0])
	}
	if rep.Makespan != 6 {
		t.Errorf("makespan = %v, want 6", rep.Makespan)
	}
}

func TestAllCrashedAtZeroFails(t *testing.T) {
	p := testPlatform(t, 1)
	if _, err := RunResilientDemandDriven(p, uniformTasks(1, 0, 1), SingleCrash(0, 0), ResilientOptions{}); err == nil {
		t.Error("a pool with no live worker should fail")
	}
}

func TestStragglerFactorOneMatchesDemandDriven(t *testing.T) {
	// A constant (factor 1) speed profile must reproduce the plain
	// demand-driven run, although IntegrateWork breaks at its edges.
	p := testPlatform(t, 1, 3, 2)
	tasks := uniformTasks(30, 0.5, 2)
	plain, err := dessim.RunDemandDriven(p, tasks, dessim.ParallelLinks)
	if err != nil {
		t.Fatal(err)
	}
	var sc Scenario
	for w := 0; w < 3; w++ {
		sc.Events = append(sc.Events,
			Event{Kind: Straggler, Worker: w, Time: 0, Until: 2.5, Factor: 1},
			Event{Kind: Straggler, Worker: w, Time: 2.5, Until: math.Inf(1), Factor: 1})
	}
	rep, err := RunResilientDemandDriven(p, tasks, sc, ResilientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plain.Makespan-rep.Makespan) > 1e-9 {
		t.Errorf("constant profile: %v vs plain %v", rep.Makespan, plain.Makespan)
	}
	if math.Abs(plain.UsefulWork()-rep.Trace.UsefulWork()) > 1e-9 {
		t.Error("work accounting differs")
	}
}
