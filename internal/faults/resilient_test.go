package faults

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"nlfl/internal/dessim"
	"nlfl/internal/platform"
	"nlfl/internal/stats"
	"nlfl/internal/trace"
)

func testPlatform(t *testing.T, speeds ...float64) *platform.Platform {
	t.Helper()
	ws := make([]platform.Worker, len(speeds))
	for i, s := range speeds {
		ws[i] = platform.Worker{Speed: s, Bandwidth: 1}
	}
	p, err := platform.New(ws)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func uniformTasks(n int, data, work float64) []dessim.Task {
	tasks := make([]dessim.Task, n)
	for i := range tasks {
		tasks[i] = dessim.Task{Data: data, Work: work}
	}
	return tasks
}

// With no faults, the resilient executor must reproduce the plain
// demand-driven run exactly: same makespan, no waste of any kind.
func TestResilientFaultFreeMatchesDemandDriven(t *testing.T) {
	p := testPlatform(t, 3, 2, 1)
	tasks := uniformTasks(12, 1, 2)
	rep, err := RunResilientDemandDriven(p, tasks, Scenario{}, ResilientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tl, err := dessim.RunDemandDriven(p, tasks, dessim.ParallelLinks)
	if err != nil {
		t.Fatal(err)
	}
	want := tl.Makespan // the latest worker finish time
	if math.Abs(rep.Makespan-want) > 1e-9 {
		t.Errorf("fault-free makespan = %v, plain demand-driven = %v", rep.Makespan, want)
	}
	if rep.ExtraComm != 0 || rep.LostWork != 0 || rep.WastedWork != 0 ||
		rep.Reexecutions != 0 || rep.DroppedTransfers != 0 || rep.Retries != 0 {
		t.Errorf("fault-free run reported waste: %+v", rep)
	}
	total := 0
	for _, c := range rep.TasksPerWorker {
		total += c
	}
	if total != len(tasks) {
		t.Errorf("tasks accounted = %d, want %d", total, len(tasks))
	}
}

// A single permanent crash: the job still completes, only the crashed
// worker's in-flight chunk is re-executed, and the makespan inflation is
// bounded by redistributing the dead worker's remaining share — not by
// losing it.
func TestResilientSingleCrashDegradesGracefully(t *testing.T) {
	p := testPlatform(t, 2, 2, 2, 2)
	tasks := uniformTasks(40, 1, 2)
	// t=5.5 lands mid-compute on worker 3 (its cycles are 1s transfer +
	// 1s compute), so the crash destroys a partial computation.
	sc := Scenario{Events: []Event{{Kind: Crash, Worker: 3, Time: 5.5}}}
	rep, err := RunResilientDemandDriven(p, tasks, sc, ResilientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := RunResilientDemandDriven(p, tasks, Scenario{}, ResilientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan <= base.Makespan {
		t.Errorf("crash should inflate makespan: %v vs %v", rep.Makespan, base.Makespan)
	}
	// At most one in-flight chunk is lost per crash; the survivors absorb
	// the rest of the pool. 3 survivors at speed 2 process the whole
	// remaining pool, so the makespan stays within the serial bound of the
	// fault-free run plus the dead worker's share redistributed.
	if rep.Reexecutions != 1 {
		t.Errorf("single crash should re-execute exactly the in-flight chunk, got %d", rep.Reexecutions)
	}
	if rep.ExtraComm != tasks[0].Data {
		t.Errorf("extra comm = %v, want one chunk's data %v", rep.ExtraComm, tasks[0].Data)
	}
	if rep.LostWork <= 0 || rep.LostWork > tasks[0].Work {
		t.Errorf("lost work = %v, want in (0, %v]", rep.LostWork, tasks[0].Work)
	}
	total := 0
	for _, c := range rep.TasksPerWorker {
		total += c
	}
	if total != len(tasks) {
		t.Errorf("tasks accounted = %d, want %d", total, len(tasks))
	}
	// Fault-free with only the 3 survivors upper-bounds what re-planning
	// from scratch would cost; the resilient run should not be far above
	// it (it loses at most one chunk plus the heartbeat delay).
	p3 := testPlatform(t, 2, 2, 2)
	worst, err := RunResilientDemandDriven(p3, tasks, Scenario{}, ResilientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan > worst.Makespan+2 {
		t.Errorf("crash makespan %v far above survivor-only bound %v", rep.Makespan, worst.Makespan)
	}
}

// A transient crash: the worker rejoins and contributes again.
func TestResilientTransientRecovery(t *testing.T) {
	p := testPlatform(t, 1, 1)
	tasks := uniformTasks(20, 0.5, 1)
	sc := Scenario{Events: []Event{{Kind: Transient, Worker: 1, Time: 2, Until: 6}}}
	rep, err := RunResilientDemandDriven(p, tasks, sc, ResilientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TasksPerWorker[1] == 0 {
		t.Error("recovered worker never contributed after rejoining")
	}
	if rep.Reexecutions != 1 {
		t.Errorf("transient crash should bounce one in-flight chunk, got %d", rep.Reexecutions)
	}
	// The recovered worker must have completions after its recovery time.
	late := false
	for _, s := range rep.Trace.Spans[1] {
		if s.Kind == trace.Compute && s.End > 6 && s.Outcome != trace.Killed && s.Work > 0 {
			late = true
		}
	}
	if !late {
		t.Error("no post-recovery computation recorded on worker 1")
	}
}

// Speculation beats a hard straggler: without backups the slowed worker's
// last chunk dominates the makespan; with Speculate a fast idle worker
// re-runs it.
func TestResilientSpeculationBeatsStraggler(t *testing.T) {
	p := testPlatform(t, 4, 4, 1)
	tasks := uniformTasks(9, 0.1, 4)
	// Worker 2 slows to 1% for a long window covering its whole run.
	sc := Scenario{Events: []Event{{Kind: Straggler, Worker: 2, Time: 0.5, Until: 1000, Factor: 0.01}}}
	slow, err := RunResilientDemandDriven(p, tasks, sc, ResilientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := RunResilientDemandDriven(p, tasks, sc, ResilientOptions{Speculate: true})
	if err != nil {
		t.Fatal(err)
	}
	if spec.Backups == 0 {
		t.Fatal("speculation never launched a backup")
	}
	if spec.Makespan >= slow.Makespan {
		t.Errorf("speculation did not help: %v vs %v", spec.Makespan, slow.Makespan)
	}
	if spec.WastedWork < 0 {
		t.Errorf("negative wasted work %v", spec.WastedWork)
	}
}

// A fully flaky link inside a window: transfers are retried with backoff
// and the job completes once the window closes (or via other workers).
func TestResilientFlakyLinkRetries(t *testing.T) {
	p := testPlatform(t, 1, 1)
	tasks := uniformTasks(8, 1, 1)
	sc := Scenario{
		Events: []Event{{Kind: LinkDrop, Worker: 1, Time: 0, Until: 3, DropProb: 1}},
		Seed:   42,
	}
	rep, err := RunResilientDemandDriven(p, tasks, sc, ResilientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DroppedTransfers == 0 {
		t.Error("certain-drop window produced no dropped transfers")
	}
	if rep.Retries == 0 {
		t.Error("drops should trigger backoff retries")
	}
	if rep.ExtraComm == 0 {
		t.Error("dropped shipments should count as extra communication")
	}
	total := 0
	for _, c := range rep.TasksPerWorker {
		total += c
	}
	if total != len(tasks) {
		t.Errorf("tasks accounted = %d, want %d", total, len(tasks))
	}
}

// Every worker permanently dead before the pool drains: the executor must
// return an error, not hang or silently under-report.
func TestResilientAllDeadErrors(t *testing.T) {
	p := testPlatform(t, 1, 1)
	tasks := uniformTasks(50, 1, 5)
	sc := Scenario{Events: []Event{
		{Kind: Crash, Worker: 0, Time: 1},
		{Kind: Crash, Worker: 1, Time: 2},
	}}
	rep, err := RunResilientDemandDriven(p, tasks, sc, ResilientOptions{})
	if err == nil {
		t.Fatal("expected error when every worker dies mid-job")
	}
	if rep == nil {
		t.Fatal("partial report should still be returned")
	}
	total := 0
	for _, c := range rep.TasksPerWorker {
		total += c
	}
	if total >= len(tasks) {
		t.Errorf("dead platform completed %d of %d tasks", total, len(tasks))
	}
}

// Identical seeds must reproduce bit-identical reports; the JSON view is
// the canonical comparison surface (Timeline is excluded by design).
func TestResilientDeterministicUnderSeed(t *testing.T) {
	p := testPlatform(t, 3, 2, 1)
	tasks := uniformTasks(15, 1, 2)
	sc := Scenario{
		Events: []Event{
			{Kind: LinkDrop, Worker: 0, Time: 0, Until: 5, DropProb: 0.5},
			{Kind: Transient, Worker: 2, Time: 1, Until: 4},
		},
		Seed: 99,
	}
	opt := ResilientOptions{Speculate: true}
	a, err := RunResilientDemandDriven(p, tasks, sc, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunResilientDemandDriven(p, tasks, sc, opt)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Errorf("same seed diverged:\n%s\n%s", ja, jb)
	}
	sc.Seed = 100
	c, err := RunResilientDemandDriven(p, tasks, sc, opt)
	if err != nil {
		t.Fatal(err)
	}
	jc, _ := json.Marshal(c)
	if string(ja) == string(jc) {
		t.Log("different seeds produced identical runs (possible but unlikely); not failing")
	}
}

func TestResilientRejectsBadInput(t *testing.T) {
	p := testPlatform(t, 1)
	if _, err := RunResilientDemandDriven(p, []dessim.Task{{Data: -1}}, Scenario{}, ResilientOptions{}); err == nil {
		t.Error("negative task size accepted")
	}
	if _, err := RunResilientDemandDriven(p, nil, Scenario{Events: []Event{{Kind: Crash, Worker: 7, Time: 1}}}, ResilientOptions{}); err == nil {
		t.Error("out-of-range scenario accepted")
	}
}

// The robustness contrast at the heart of the ISSUE: under the same
// single permanent crash, single-round DLT loses the dead worker's whole
// remaining allocation while the demand-driven executor loses at most the
// in-flight chunk.
func TestSingleRoundLosesAllocationDemandDrivenDoesNot(t *testing.T) {
	p := testPlatform(t, 2, 2, 2, 2)
	totalWork := 80.0
	totalData := 40.0
	sc := Scenario{Events: []Event{{Kind: Crash, Worker: 3, Time: 5}}}

	chunks := LinearDLTChunks(p, totalData, totalWork)
	sr, err := RunSingleRoundUnderFaults(p, chunks, sc)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Completed {
		t.Fatal("single-round should not survive a crash")
	}
	// Worker 3 holds 1/4 of the load; its chunk's transfer+compute run
	// long past t=5, so the whole allocation is lost.
	if want := totalWork / 4; math.Abs(sr.LostWork-want) > 1e-9 {
		t.Errorf("single-round lost %v work, want the full allocation %v", sr.LostWork, want)
	}
	if math.Abs(sr.LostFraction-0.25) > 1e-9 {
		t.Errorf("lost fraction = %v, want 0.25", sr.LostFraction)
	}
	if sr.PerWorkerLost[3] != sr.LostWork {
		t.Errorf("loss not attributed to the dead worker: %v", sr.PerWorkerLost)
	}

	tasks := uniformTasks(40, 1, 2) // same totals, chunked
	dd, err := RunResilientDemandDriven(p, tasks, sc, ResilientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if dd.LostWork > tasks[0].Work {
		t.Errorf("demand-driven lost %v work, more than one in-flight chunk (%v)", dd.LostWork, tasks[0].Work)
	}
	if dd.LostWork >= sr.LostWork {
		t.Errorf("demand-driven (%v) should lose far less than single-round (%v)", dd.LostWork, sr.LostWork)
	}
}

func TestSingleRoundFaultFree(t *testing.T) {
	p := testPlatform(t, 2, 1)
	chunks := LinearDLTChunks(p, 3, 6)
	rep, err := RunSingleRoundUnderFaults(p, chunks, Scenario{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed || rep.LostWork != 0 || rep.LostFraction != 0 {
		t.Errorf("fault-free single round reported loss: %+v", rep)
	}
	if rep.CompletedWork != 6 {
		t.Errorf("completed work = %v, want 6", rep.CompletedWork)
	}
	if rep.Makespan <= 0 {
		t.Errorf("makespan = %v", rep.Makespan)
	}
}

// One crawling worker (speed 0.01) and three fast ones: without backups
// the crawler strands its task until t=100; with backups a fast worker
// re-executes it and the crawler's copy is wasted.
func TestResilientSpeculationHelpsStraggler(t *testing.T) {
	p := testPlatform(t, 0.01, 1, 1, 1)
	tasks := uniformTasks(8, 0, 1)
	plain, err := RunResilientDemandDriven(p, tasks, Scenario{}, ResilientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := RunResilientDemandDriven(p, tasks, Scenario{}, ResilientOptions{Speculate: true})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Makespan != 100 || spec.Makespan != 3 {
		t.Errorf("makespan %v → %v with speculation, want 100 → 3", plain.Makespan, spec.Makespan)
	}
	if spec.Backups != 1 || spec.WastedWork != 1 {
		t.Errorf("backups %d, wasted %v; want 1 and 1", spec.Backups, spec.WastedWork)
	}
}

func TestResilientSpeculationNoRegressOnHomogeneous(t *testing.T) {
	p := testPlatform(t, 1, 1, 1, 1)
	tasks := uniformTasks(16, 0.1, 1)
	plain, err := RunResilientDemandDriven(p, tasks, Scenario{}, ResilientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := RunResilientDemandDriven(p, tasks, Scenario{}, ResilientOptions{Speculate: true})
	if err != nil {
		t.Fatal(err)
	}
	if spec.Makespan > plain.Makespan+1e-9 {
		t.Errorf("speculation regressed: %v vs %v", spec.Makespan, plain.Makespan)
	}
}

func TestResilientScheduleValidation(t *testing.T) {
	p := testPlatform(t, 1, 1)
	if _, err := RunResilientDemandDriven(p, []dessim.Task{{Work: -1}}, Scenario{}, ResilientOptions{}); err == nil {
		t.Error("negative work accepted")
	}
	rep, err := RunResilientDemandDriven(p, nil, Scenario{}, ResilientOptions{Speculate: true})
	if err != nil || rep.Makespan != 0 {
		t.Errorf("empty pool: %+v %v", rep, err)
	}
}

// Property: with or without speculation, every task completes exactly
// once and the master ships at least the pool's data.
func TestResilientScheduleProperty(t *testing.T) {
	f := func(seed int64, nt uint8, speculate bool) bool {
		r := stats.NewRNG(seed)
		p, err := platform.Generate(1+r.Intn(6), stats.Uniform{Lo: 0.5, Hi: 8}, r)
		if err != nil {
			return false
		}
		tasks := make([]dessim.Task, int(nt%50))
		totData := 0.0
		for i := range tasks {
			tasks[i] = dessim.Task{Data: r.Float64(), Work: r.Float64() * 3}
			totData += tasks[i].Data
		}
		rep, err := RunResilientDemandDriven(p, tasks, Scenario{}, ResilientOptions{Speculate: speculate})
		if err != nil {
			return false
		}
		count := 0
		for _, c := range rep.TasksPerWorker {
			count += c
		}
		return count == len(tasks) && rep.DataShipped >= totData-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// A crash costs only the chunk in flight: worker 1 dies at t=3.5 with
// three tasks done and a fourth half computed. The three completed
// results stand; the fourth is re-queued behind the pool and worker 0
// finishes it at t=7.
func TestResilientCrashReexecutesOnlyInFlight(t *testing.T) {
	p := testPlatform(t, 1, 1)
	rep, err := RunResilientDemandDriven(p, uniformTasks(10, 0, 1), SingleCrash(1, 3.5), ResilientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.TasksPerWorker, []int{7, 3}) {
		t.Errorf("task counts %v, want [7 3]", rep.TasksPerWorker)
	}
	if rep.Reexecutions != 1 || rep.LostWork != 0.5 || rep.Makespan != 7 {
		t.Errorf("reexecutions %d, lost work %v, makespan %v; want 1, 0.5, 7",
			rep.Reexecutions, rep.LostWork, rep.Makespan)
	}
}

// Everything completes at t=2; a crash at t=100 changes nothing.
func TestResilientCrashAfterCompletionIsFree(t *testing.T) {
	p := testPlatform(t, 1, 1)
	rep, err := RunResilientDemandDriven(p, uniformTasks(4, 0, 1), SingleCrash(0, 100), ResilientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan != 2 || rep.Reexecutions != 0 || rep.LostWork != 0 ||
		!reflect.DeepEqual(rep.TasksPerWorker, []int{2, 2}) {
		t.Errorf("late crash should be free: %+v", rep)
	}
}
