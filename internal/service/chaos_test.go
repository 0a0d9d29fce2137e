package service

import (
	"context"
	"errors"
	"math"
	"testing"

	"nlfl/internal/faults"
	"nlfl/internal/stats"
	"nlfl/internal/trace"
)

// chaosConfig is slow enough that job-scoped fault instants land inside
// the jobs that carry them.
func chaosConfig() Config {
	return Config{
		Speeds:        []float64{1, 2, 3, 4},
		WorkPerSecond: 2e4,
		Policy:        PolicyInterleaved,
		VerifyEvery:   251,
	}
}

// TestJobScopedCrashIsolation is the tentpole invariant: a chaos crash
// inside one tenant's job degrades that job only. The crashed worker's
// leases are re-planned onto the job's surviving slice, while the same
// worker keeps serving every other tenant, whose ledgers stay exact.
func TestJobScopedCrashIsolation(t *testing.T) {
	f, err := New(chaosConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	var clean []*JobHandle
	for i := 0; i < 4; i++ {
		clean = append(clean, mustSubmit(t, f, JobSpec{Tenant: "steady", N: 64, Seed: int64(i)}))
	}
	chaotic := mustSubmit(t, f, JobSpec{
		Tenant:   "hammered",
		N:        64,
		Strategy: "het", // owned backlogs exercise survivor re-planning
		Seed:     99,
		Chaos: ChaosSpec{
			Scenario:   faults.SingleCrash(2, 0.01),
			MaxRetries: 3,
		},
	})

	rep := waitOK(t, chaotic)
	if rep.ReclaimedCells == 0 || rep.DegradedWorkers != 1 {
		t.Fatalf("chaos job saw no reclamation: reclaimed=%d degraded=%d", rep.ReclaimedCells, rep.DegradedWorkers)
	}
	if rep.ReplannedVolume <= 0 {
		t.Errorf("re-plan added no volume: %v", rep.ReplannedVolume)
	}
	checkJob(t, rep)

	for _, h := range clean {
		cr := waitOK(t, h)
		if cr.WastedData != 0 || cr.ReclaimedCells != 0 || cr.DegradedWorkers != 0 {
			t.Errorf("clean job %d degraded: waste=%v reclaimed=%d degraded=%d",
				cr.ID, cr.WastedData, cr.ReclaimedCells, cr.DegradedWorkers)
		}
		if d := cr.CommittedVolume - cr.PlanVolume; math.Abs(d) > 1e-9 {
			t.Errorf("clean job %d committed %v != plan %v", cr.ID, cr.CommittedVolume, cr.PlanVolume)
		}
		checkJob(t, cr)
	}

	acc := f.Accounting()
	for _, ta := range acc.Tenants {
		switch ta.Tenant {
		case "steady":
			if ta.Failed != 0 || ta.WastedData != 0 || ta.ReclaimedCells != 0 {
				t.Errorf("steady tenant degraded: %+v", ta)
			}
		case "hammered":
			if ta.ReclaimedCells == 0 || ta.DegradedEvents != 1 {
				t.Errorf("hammered tenant account: %+v", ta)
			}
		}
	}
	// The crash cost the worker a health strike, but (below the default
	// budget of 2) no quarantine.
	hs := f.Health()
	if hs[2].Strikes != 1 || hs[2].Quarantined {
		t.Fatalf("worker 2 health: %+v", hs[2])
	}
}

func TestSpeculationBeatsJobScopedStraggler(t *testing.T) {
	f, err := New(chaosConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const n = 64
	r := stats.NewRNG(5)
	a := stats.SampleN(stats.Uniform{Lo: -1, Hi: 1}, r, n)
	b := stats.SampleN(stats.Uniform{Lo: -1, Hi: 1}, r, n)
	rep := waitOK(t, mustSubmit(t, f, JobSpec{
		Tenant:   "spec",
		N:        n,
		Strategy: "het",
		A:        a,
		B:        b,
		Chaos: ChaosSpec{
			Scenario: faults.Scenario{Events: []faults.Event{
				{Kind: faults.Straggler, Worker: 1, Time: 0, Until: 30, Factor: 0.2},
			}},
			MaxRetries:     3,
			SpeculateAfter: 0.025,
		},
	}))
	if rep.SpeculativeWins == 0 {
		t.Fatalf("speculation never won: %+v", rep)
	}
	if rep.WastedWorkCells == 0 {
		t.Errorf("losing straggler copy not accounted as waste")
	}
	checkJob(t, rep)
	// Commit, then fill: each task has one OK Compute span, some losing
	// copy is Wasted on another worker than its task's winner, and the
	// output is the product cell for cell.
	winner := map[int]int{}
	for w, spans := range rep.Trace.Spans {
		for _, s := range spans {
			if s.Kind == trace.Compute && s.Outcome == trace.OK {
				if prev, dup := winner[s.Task]; dup {
					t.Errorf("task %d committed by workers %d and %d", s.Task, prev, w)
				}
				winner[s.Task] = w
			}
		}
	}
	lost := false
	for w, spans := range rep.Trace.Spans {
		for _, s := range spans {
			if won, ok := winner[s.Task]; ok && s.Kind == trace.Compute && s.Outcome == trace.Wasted && won != w {
				lost = true
			}
		}
	}
	if !lost {
		t.Errorf("no Wasted Compute span for a losing copy")
	}
	for i, av := range a {
		for k, bv := range b {
			if got := rep.Out.At(i, k); got != av*bv {
				t.Fatalf("cell (%d,%d) = %v, want %v", i, k, got, av*bv)
			}
		}
	}
}

func TestChaosBudgetExhaustionFailsOnlyThatJob(t *testing.T) {
	f, err := New(chaosConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	steady := mustSubmit(t, f, JobSpec{Tenant: "steady", N: 64, Seed: 1})
	doomed := mustSubmit(t, f, JobSpec{
		Tenant:   "doomed",
		N:        64,
		Strategy: "het",
		Seed:     2,
		Chaos:    ChaosSpec{Scenario: faults.SingleCrash(3, 0.005), MaxRetries: 0},
	})
	rep, err := doomed.Wait(context.Background())
	if !errors.Is(err, ErrJobFailed) {
		t.Fatalf("doomed job: %v, want ErrJobFailed", err)
	}
	if rep == nil || !rep.Failed || rep.Err == "" {
		t.Fatalf("doomed report: %+v", rep)
	}
	checkJob(t, waitOK(t, steady))
}

func TestAllSliceWorkersCrashedFailsJob(t *testing.T) {
	f, err := New(chaosConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h := mustSubmit(t, f, JobSpec{
		Tenant:     "solo",
		N:          64,
		MaxWorkers: 1, // slice is worker 3 alone
		Seed:       3,
		Chaos:      ChaosSpec{Scenario: faults.SingleCrash(3, 0.005), MaxRetries: 5},
	})
	if _, err := h.Wait(context.Background()); !errors.Is(err, ErrJobFailed) {
		t.Fatalf("all-dead job: %v, want ErrJobFailed", err)
	}
}

func TestQuarantineAndReadmission(t *testing.T) {
	f, err := New(chaosConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	crashJob := func(seed int64) JobSpec {
		return JobSpec{
			Tenant: "a", N: 64, Strategy: "het", Seed: seed,
			Chaos: ChaosSpec{Scenario: faults.SingleCrash(2, 0.01), MaxRetries: 3},
		}
	}

	// The first crash is a strike; the second spends the budget of two
	// and quarantines worker 2.
	waitOK(t, mustSubmit(t, f, crashJob(1)))
	if hs := f.Health(); hs[2].Quarantined || hs[2].Strikes != 1 {
		t.Fatalf("worker 2 after one crash: %+v, want one strike", hs[2])
	}
	waitOK(t, mustSubmit(t, f, crashJob(2)))
	hs := f.Health()
	if !hs[2].Quarantined {
		t.Fatalf("worker 2 not quarantined: %+v", hs[2])
	}

	// New jobs are sliced without the quarantined worker.
	rep := waitOK(t, mustSubmit(t, f, JobSpec{Tenant: "a", N: 96, Seed: 3}))
	for _, w := range rep.Workers {
		if w == 2 {
			t.Fatalf("quarantined worker in slice %v", rep.Workers)
		}
	}

	// Probation: eight finished jobs after the quarantining strike (the
	// crash job itself and the one above among them) readmit it.
	for seed := int64(4); seed < 9; seed++ {
		waitOK(t, mustSubmit(t, f, JobSpec{Tenant: "a", N: 48, Seed: seed}))
		if hs = f.Health(); !hs[2].Quarantined {
			t.Fatalf("worker 2 readmitted after %d of 8 probation jobs", seed-1)
		}
	}
	waitOK(t, mustSubmit(t, f, JobSpec{Tenant: "a", N: 48, Seed: 9}))
	hs = f.Health()
	if hs[2].Quarantined || hs[2].Strikes != 0 {
		t.Fatalf("worker 2 still quarantined after probation: %+v", hs[2])
	}
	rep = waitOK(t, mustSubmit(t, f, JobSpec{Tenant: "a", N: 96, Seed: 10}))
	found := false
	for _, w := range rep.Workers {
		found = found || w == 2
	}
	if !found {
		t.Fatalf("readmitted worker missing from slice %v", rep.Workers)
	}
}

// TestChaosTraceOracle runs the chaos job's timeline through the full
// trace checker with the plan-floor + exactly-once expectations, and
// checks that the chunk the crash destroyed mid-compute is recorded
// under its own task: worker 1 owns het task 1, so a Killed span
// labelled task 0 is wrong.
func TestChaosTraceOracle(t *testing.T) {
	f, err := New(chaosConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep := waitOK(t, mustSubmit(t, f, JobSpec{
		Tenant: "oracle", N: 64, Strategy: "het", Seed: 11,
		Chaos: ChaosSpec{Scenario: faults.SingleCrash(1, 0.01), MaxRetries: 3},
	}))
	exp := rep.Expect(1e-9)
	if exp.BoundKind != trace.BoundLower || !exp.ExactlyOnce {
		t.Fatalf("chaos expectations not armed: %+v", exp)
	}
	if vs := trace.Check(rep.Trace, exp); len(vs) != 0 {
		for _, v := range vs {
			t.Errorf("trace: %s", v)
		}
	}
	killed, shipped := 0, -1
	for _, sp := range rep.Trace.Spans[1] {
		switch {
		case sp.Kind == trace.Comm && sp.Outcome == trace.OK:
			shipped = sp.Task
		case sp.Outcome == trace.Killed:
			killed++
			if sp.Task != shipped {
				t.Errorf("Killed span labelled task %d, but worker 1 was computing task %d", sp.Task, shipped)
			}
		}
	}
	if killed == 0 {
		t.Errorf("the crash at 10 ms killed no chunk mid-compute: %+v", rep.Trace.Spans[1])
	}
}

// TestJobScopedFaultKinds runs one chaos job per remaining fault kind
// beside a clean bystander. Every chaos job completes under the trace
// oracle; the LinkDrop job retries and wastes shipped data, the
// Transient job stalls without reclaiming anything, and the bystander
// sees none of it.
func TestJobScopedFaultKinds(t *testing.T) {
	// every covers each fleet worker, so whichever worker ships the
	// job's first chunk is inside the window.
	every := func(e faults.Event) faults.Scenario {
		var sc faults.Scenario
		for w := 0; w < len(chaosConfig().Speeds); w++ {
			e.Worker = w
			sc.Events = append(sc.Events, e)
		}
		return sc
	}
	rows := []struct {
		name  string
		chaos ChaosSpec
		check func(t *testing.T, rep *JobReport)
	}{
		{"transient", ChaosSpec{
			Scenario:   every(faults.Event{Kind: faults.Transient, Time: 0, Until: 0.005}),
			MaxRetries: 3,
		}, func(t *testing.T, rep *JobReport) {
			if rep.ReclaimedCells != 0 || rep.DegradedWorkers != 0 {
				t.Errorf("an outage reclaimed work: reclaimed=%d degraded=%d", rep.ReclaimedCells, rep.DegradedWorkers)
			}
		}},
		{"link-slow", ChaosSpec{
			Scenario:   every(faults.Event{Kind: faults.LinkSlow, Time: 0, Until: 0.01, Factor: 0.25}),
			MaxRetries: 3,
		}, func(*testing.T, *JobReport) {}},
		{"link-drop", ChaosSpec{
			Scenario:   every(faults.Event{Kind: faults.LinkDrop, Time: 0, Until: 0.002, DropProb: 1}),
			MaxRetries: 64,
		}, func(t *testing.T, rep *JobReport) {
			if rep.RetriedChunks == 0 || rep.WastedData == 0 {
				t.Errorf("drops left no trace: retried=%d wasted=%v", rep.RetriedChunks, rep.WastedData)
			}
		}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			f, err := New(chaosConfig())
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			bystander := mustSubmit(t, f, JobSpec{Tenant: "bystander", N: 64, Seed: 1})
			rep := waitOK(t, mustSubmit(t, f, JobSpec{Tenant: "chaos", N: 64, Strategy: "het", Seed: 2, Chaos: r.chaos}))
			if vs := trace.Check(rep.Trace, rep.Expect(1e-9)); len(vs) != 0 {
				for _, v := range vs {
					t.Errorf("trace: %s", v)
				}
			}
			r.check(t, rep)
			by := waitOK(t, bystander)
			if by.WastedData != 0 || by.RetriedChunks != 0 || by.ReclaimedCells != 0 {
				t.Errorf("bystander degraded: waste=%v retried=%d reclaimed=%d", by.WastedData, by.RetriedChunks, by.ReclaimedCells)
			}
		})
	}
}
