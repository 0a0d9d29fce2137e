package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"nlfl/internal/faults"
	nrt "nlfl/internal/runtime"
	"nlfl/internal/trace"
)

// testConfig is a small fast fleet: 4 heterogeneous workers, quick jobs.
func testConfig() Config {
	return Config{
		Speeds:        []float64{1, 2, 3, 4},
		WorkPerSecond: 4e5,
		Policy:        PolicyInterleaved,
		VerifyEvery:   509,
	}
}

func mustSubmit(t *testing.T, f *Fleet, spec JobSpec) *JobHandle {
	t.Helper()
	h, err := f.Submit(spec)
	if err != nil {
		t.Fatalf("Submit(%+v): %v", spec, err)
	}
	return h
}

func waitOK(t *testing.T, h *JobHandle) *JobReport {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rep, err := h.Wait(ctx)
	if err != nil {
		t.Fatalf("job %d failed: %v", h.ID(), err)
	}
	return rep
}

// checkJob verifies a successful job end to end: exact output, ledger
// identities, and the trace oracle.
func checkJob(t *testing.T, rep *JobReport) {
	t.Helper()
	if rep.Out == nil {
		t.Fatalf("job %d: no output", rep.ID)
	}
	if rep.Latency < rep.Makespan {
		t.Errorf("job %d: latency %v < makespan %v", rep.ID, rep.Latency, rep.Makespan)
	}
	if d := rep.DataShipped - (rep.CommittedVolume + rep.WastedData); math.Abs(d) > 1e-6*(1+rep.DataShipped) {
		t.Errorf("job %d: shipped %v != committed %v + wasted %v", rep.ID, rep.DataShipped, rep.CommittedVolume, rep.WastedData)
	}
	if d := rep.CommittedVolume - (rep.PlanVolume + rep.ReplannedVolume); math.Abs(d) > 1e-6*(1+rep.CommittedVolume) {
		t.Errorf("job %d: committed %v != plan %v + replanned %v", rep.ID, rep.CommittedVolume, rep.PlanVolume, rep.ReplannedVolume)
	}
	if vs := trace.Check(rep.Trace, rep.Expect(1e-9)); len(vs) != 0 {
		for _, v := range vs {
			t.Errorf("job %d trace: %s", rep.ID, v)
		}
	}
}

func TestFleetSingleJobEachStrategy(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, strat := range []string{"hom", "hom/k", "het"} {
		h := mustSubmit(t, f, JobSpec{Tenant: "t0", N: 96, Strategy: strat, Seed: 7})
		rep := waitOK(t, h)
		if rep.Strategy != strat || rep.N != 96 {
			t.Fatalf("report identity mismatch: %+v", rep)
		}
		if rep.WastedData != 0 || rep.ReplannedVolume != 0 {
			t.Errorf("%s: clean job has waste %v / replan %v", strat, rep.WastedData, rep.ReplannedVolume)
		}
		checkJob(t, rep)
	}
}

func TestFleetManyConcurrentJobsPerPolicy(t *testing.T) {
	for _, pol := range Policies() {
		pol := pol
		t.Run(string(pol), func(t *testing.T) {
			cfg := testConfig()
			cfg.Policy = pol
			f, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			var handles []*JobHandle
			for i := 0; i < 12; i++ {
				spec := JobSpec{
					Tenant:   fmt.Sprintf("tenant-%d", i%3),
					N:        48 + 16*(i%4),
					Strategy: []string{"hom", "het"}[i%2],
					Seed:     int64(100 + i),
				}
				handles = append(handles, mustSubmit(t, f, spec))
			}
			for _, h := range handles {
				checkJob(t, waitOK(t, h))
			}
			acc := f.Accounting()
			if acc.Completed != 12 || acc.Failed != 0 || acc.ActiveJobs != 0 {
				t.Fatalf("accounting: %+v", acc)
			}
			if len(acc.Tenants) != 3 {
				t.Fatalf("want 3 tenants, got %d", len(acc.Tenants))
			}
			for _, ta := range acc.Tenants {
				if ta.Completed != 4 || ta.WastedData != 0 {
					t.Errorf("tenant %s: %+v", ta.Tenant, ta)
				}
				if d := ta.CommittedVolume - ta.PlanVolume; math.Abs(d) > 1e-6 {
					t.Errorf("tenant %s: committed %v != plan %v", ta.Tenant, ta.CommittedVolume, ta.PlanVolume)
				}
			}
		})
	}
}

func TestFleetSharedLinkJobs(t *testing.T) {
	cfg := testConfig()
	// Tight enough that transfers serialize, loose enough to finish fast.
	cfg.Link = nrt.Link{ElemsPerSecond: 2e5}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var handles []*JobHandle
	for i := 0; i < 6; i++ {
		handles = append(handles, mustSubmit(t, f, JobSpec{Tenant: "link", N: 64, Seed: int64(i)}))
	}
	for _, h := range handles {
		rep := waitOK(t, h)
		if rep.LinkCapacity != 2e5 {
			t.Fatalf("link capacity not threaded: %v", rep.LinkCapacity)
		}
		checkJob(t, rep)
	}
}

// TestPolicyOrdering pins the disciplines' signature behavior: under
// FIFO a small job queued behind a big one finishes after it; under
// SRPT and interleaved installments it overtakes.
func TestPolicyOrdering(t *testing.T) {
	for _, tc := range []struct {
		policy    Policy
		overtakes bool
	}{
		{PolicyFIFO, false},
		{PolicySRPT, true},
		{PolicyInterleaved, true},
	} {
		tc := tc
		t.Run(string(tc.policy), func(t *testing.T) {
			cfg := Config{
				// Σsᵢ/s₁ = 10 → a 3×3 hom grid: the big job has more
				// chunks than workers, so the pool reaches a scheduling
				// decision point while it is still running.
				Speeds:        []float64{1, 2, 3, 4},
				WorkPerSecond: 2e4, // big job ≈ 50 ms of fleet work
				Policy:        tc.policy,
			}
			f, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			big := mustSubmit(t, f, JobSpec{Tenant: "t", N: 96, Seed: 1})
			small := mustSubmit(t, f, JobSpec{Tenant: "t", N: 32, Seed: 2})
			bigRep := waitOK(t, big)
			smallRep := waitOK(t, small)
			if got := smallRep.DoneTime < bigRep.DoneTime; got != tc.overtakes {
				t.Fatalf("%s: small done at %v, big at %v, overtakes=%v want %v",
					tc.policy, smallRep.DoneTime, bigRep.DoneTime, got, tc.overtakes)
			}
			checkJob(t, bigRep)
			checkJob(t, smallRep)
		})
	}
}

func TestSubmitValidation(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, spec := range []JobSpec{
		{N: 0},
		{N: 32, A: make([]float64, 32)}, // A without B
		{N: 32, A: make([]float64, 8), B: make([]float64, 32)}, // wrong length
		{N: 32, Strategy: "nope"},
		{N: 32, MaxWorkers: -1},
		// Chaos options are judged by the runtime's own validation.
		{N: 32, Chaos: ChaosSpec{Scenario: faults.SingleCrash(0, 1), BackoffBase: math.NaN()}},
		{N: 32, Chaos: ChaosSpec{Scenario: faults.SingleCrash(0, 1), BackoffBase: math.Inf(1)}},
		{N: 32, Chaos: ChaosSpec{Scenario: faults.SingleCrash(0, 1), BackoffMax: math.NaN()}},
		{N: 32, Chaos: ChaosSpec{Scenario: faults.SingleCrash(0, 1), BackoffMax: math.Inf(-1)}},
		{N: 32, Chaos: ChaosSpec{SpeculateAfter: math.Inf(1)}},
		{N: 32, Chaos: ChaosSpec{Scenario: faults.SingleCrash(9, 1)}},
	} {
		if _, err := f.Submit(spec); err == nil {
			t.Errorf("Submit(%+v): want error", spec)
		}
	}
	if _, err := New(Config{}); err == nil {
		t.Error("New with no speeds: want error")
	}
	if _, err := New(Config{Speeds: []float64{1}, Policy: "nope"}); err == nil {
		t.Error("New with bad policy: want error")
	}
	if _, err := New(Config{Speeds: []float64{1, -1}}); err == nil {
		t.Error("New with negative speed: want error")
	}
}

func TestAmdahlSliceCap(t *testing.T) {
	f, err := New(testConfig()) // minCellsPerWorker is 256
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// 24² = 576 cells → at most 2 workers despite a 4-worker fleet.
	rep := waitOK(t, mustSubmit(t, f, JobSpec{Tenant: "amdahl", N: 24, Seed: 3}))
	if len(rep.Workers) != 2 {
		t.Fatalf("slice %v: want the 2 fastest workers for n=24", rep.Workers)
	}
	// The fastest healthy workers are ids 3 and 2 (speeds 4 and 3).
	if rep.Workers[0] != 2 || rep.Workers[1] != 3 {
		t.Fatalf("slice %v: want [2 3]", rep.Workers)
	}
	// MaxWorkers caps further.
	rep = waitOK(t, mustSubmit(t, f, JobSpec{Tenant: "amdahl", N: 96, MaxWorkers: 1, Seed: 4}))
	if len(rep.Workers) != 1 || rep.Workers[0] != 3 {
		t.Fatalf("slice %v: want [3]", rep.Workers)
	}
	checkJob(t, rep)
}

func TestWaitCtxExpiry(t *testing.T) {
	cfg := testConfig()
	cfg.WorkPerSecond = 1e3 // slow: the job outlives the Wait context
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h := mustSubmit(t, f, JobSpec{Tenant: "slow", N: 64})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := h.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait under expired ctx: %v", err)
	}
	h.Cancel() // release the slow job so Close is fast
}

// TestFleetCloseMidCompute: a fleet worker paying a chunk's token debt
// used to sleep it out uninterruptibly, so Close waited for the whole
// chunk — here one 64×64 chunk at 500 cells/s, ~8 s. Close must cut the
// wait short, and the cut-short wait is no crash: no Killed span, no
// quarantine strike.
func TestFleetCloseMidCompute(t *testing.T) {
	f, err := New(Config{Speeds: []float64{1}, WorkPerSecond: 500, Burst: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := mustSubmit(t, f, JobSpec{Tenant: "slow", N: 64, Strategy: "hom"})
	time.Sleep(20 * time.Millisecond) // mid-compute: inside the first chunk's token wait
	start := time.Now()
	f.Close()
	if took := time.Since(start); took > time.Second {
		t.Errorf("Close took %v mid-compute, want well under the ~8s chunk debt", took)
	}
	rep, err := h.Wait(context.Background())
	if !errors.Is(err, ErrFleetClosed) {
		t.Fatalf("job in flight at Close returned %v, want ErrFleetClosed", err)
	}
	for w, spans := range rep.Trace.Spans {
		for _, s := range spans {
			if s.Outcome == trace.Killed {
				t.Errorf("worker %d: Close left a Killed span %+v", w, s)
			}
		}
	}
	for _, ws := range f.Health() {
		if ws.Strikes != 0 || ws.Quarantined {
			t.Errorf("Close struck worker %d: %+v", ws.Worker, ws)
		}
	}
}
