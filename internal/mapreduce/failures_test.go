package mapreduce

import (
	"math"
	"testing"
	"testing/quick"

	"nlfl/internal/platform"
	"nlfl/internal/stats"
)

func TestScheduleWithFailuresNoFailures(t *testing.T) {
	pl, err := platform.FromSpeeds([]float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	tasks, _ := UniformTasks(40, 0, 1)
	res, err := ScheduleWithFailures(pl, tasks, nil)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range res.TasksPerWorker {
		total += c
	}
	if total != 40 || res.Reexecutions != 0 || res.LostWork != 0 {
		t.Errorf("clean run: %+v", res)
	}
	// Should match the failure-free scheduler's makespan closely (both
	// are demand-driven with zero comm).
	ref, err := Schedule(pl, tasks, false)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Makespan-ref.Makespan) > 1e-9 {
		t.Errorf("makespan %v vs reference %v", res.Makespan, ref.Makespan)
	}
}

func TestFailureCausesReexecution(t *testing.T) {
	// Two unit-speed workers, 10 unit tasks. Worker 1 dies at t=3.5 after
	// completing 3 tasks (its 4th is in flight): those 3 plus the rest
	// must be redone/done by worker 0.
	pl, err := platform.FromSpeeds([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	tasks, _ := UniformTasks(10, 0, 1)
	res, err := ScheduleWithFailures(pl, tasks, []Failure{{Worker: 1, Time: 3.5}})
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksPerWorker[1] != 0 {
		t.Errorf("dead worker credited with %d tasks", res.TasksPerWorker[1])
	}
	if res.TasksPerWorker[0] != 10 {
		t.Errorf("survivor completed %d tasks, want all 10", res.TasksPerWorker[0])
	}
	if res.Reexecutions != 3 {
		t.Errorf("re-executions = %d, want 3 (completed map outputs lost)", res.Reexecutions)
	}
	if res.LostWork != 3 {
		t.Errorf("lost work = %v, want 3", res.LostWork)
	}
	// Survivor: 3 own tasks by t=3, then (interleaving) finishes the rest.
	// Total surviving executions = 10 at speed 1, of which 3 overlapped
	// the pre-failure window: makespan ≥ 10.
	if res.Makespan < 10 {
		t.Errorf("makespan = %v, expected ≥ 10", res.Makespan)
	}
}

func TestFailureAfterCompletionIsFree(t *testing.T) {
	pl, err := platform.FromSpeeds([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	tasks, _ := UniformTasks(4, 0, 1)
	// Everything completes at t=2; a failure at t=100 changes nothing
	// (map outputs have been consumed by then).
	res, err := ScheduleWithFailures(pl, tasks, []Failure{{Worker: 0, Time: 100}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 2 || res.Reexecutions != 0 {
		t.Errorf("late failure should be free: %+v", res)
	}
}

func TestAllWorkersDeadFails(t *testing.T) {
	pl, err := platform.FromSpeeds([]float64{1})
	if err != nil {
		t.Fatal(err)
	}
	tasks, _ := UniformTasks(10, 0, 1)
	if _, err := ScheduleWithFailures(pl, tasks, []Failure{{Worker: 0, Time: 1}}); err == nil {
		t.Error("killing the only worker mid-job should fail")
	}
}

func TestFailureValidation(t *testing.T) {
	pl, _ := platform.Homogeneous(2, 1, 1)
	tasks, _ := UniformTasks(2, 0, 1)
	if _, err := ScheduleWithFailures(pl, tasks, []Failure{{Worker: 9, Time: 1}}); err == nil {
		t.Error("unknown worker should fail")
	}
	if _, err := ScheduleWithFailures(pl, tasks, []Failure{{Worker: 0, Time: -1}}); err == nil {
		t.Error("negative time should fail")
	}
	if _, err := ScheduleWithFailures(pl, []TaskSpec{{Work: -1}}, nil); err == nil {
		t.Error("negative work should fail")
	}
}

func TestDoubleFailureSameWorkerIdempotent(t *testing.T) {
	pl, err := platform.FromSpeeds([]float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	tasks, _ := UniformTasks(9, 0, 1)
	a, err := ScheduleWithFailures(pl, tasks, []Failure{{Worker: 2, Time: 1.5}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ScheduleWithFailures(pl, tasks, []Failure{{Worker: 2, Time: 1.5}, {Worker: 2, Time: 2.5}})
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.Reexecutions != b.Reexecutions {
		t.Errorf("second failure of a dead worker changed the outcome: %+v vs %+v", a, b)
	}
}

// Property: with any failure pattern that leaves at least one live worker,
// every task gets a surviving execution, dead workers keep no credit, and
// the makespan respects the capacity lower bound.
func TestFailureProperty(t *testing.T) {
	f := func(seed int64, nt uint8, when uint8) bool {
		r := stats.NewRNG(seed)
		p := 2 + r.Intn(5)
		pl, err := platform.Generate(p, stats.Uniform{Lo: 0.5, Hi: 4}, r)
		if err != nil {
			return false
		}
		tasks := make([]TaskSpec, int(nt%40)+1)
		for i := range tasks {
			tasks[i] = TaskSpec{Work: 1}
		}
		clean, err := ScheduleWithFailures(pl, tasks, nil)
		if err != nil {
			return false
		}
		// Kill up to p-1 workers strictly before the clean completion, so
		// every failure is actually processed (a worker that dies before
		// the job ends keeps no credit).
		nKill := r.Intn(p)
		ft := clean.Makespan * (0.05 + 0.9*float64(when)/255)
		var fails []Failure
		for k := 0; k < nKill; k++ {
			fails = append(fails, Failure{Worker: k, Time: ft})
		}
		res, err := ScheduleWithFailures(pl, tasks, fails)
		if err != nil {
			return false
		}
		total := 0
		liveSpeed := 0.0
		for w, c := range res.TasksPerWorker {
			if w < nKill {
				if c != 0 {
					return false
				}
			} else {
				liveSpeed += pl.Worker(w).Speed
			}
			total += c
		}
		if total != len(tasks) {
			return false
		}
		// Note: failures can *reduce* the makespan relative to the clean
		// run (killing a slow worker reroutes its task to a faster idle
		// one), so the sound invariant is the capacity lower bound over
		// the post-failure survivors, not dominance over the clean run.
		return res.Makespan >= float64(len(tasks))/(liveSpeed+pl.TotalSpeed())-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// The durability rule made explicit: a worker's completed map outputs are
// lost if it dies at ANY point before the job's last task completes —
// even while sitting idle long after its own last completion.
func TestIdleWorkerDeathLosesCompletedOutputs(t *testing.T) {
	pl, err := platform.FromSpeeds([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	// 3 unit tasks on 2 unit workers: w0 runs t0 then t2 (finishes at 2),
	// w1 runs t1 and goes idle at t=1. Killing w1 at t=1.5 — while idle,
	// before the job ends at t=2 — must lose its completed output.
	tasks, _ := UniformTasks(3, 0, 1)
	res, err := ScheduleWithFailures(pl, tasks, []Failure{{Worker: 1, Time: 1.5}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reexecutions != 1 || res.LostWork != 1 {
		t.Errorf("idle death should lose the completed task: %+v", res)
	}
	if res.TasksPerWorker[1] != 0 {
		t.Errorf("dead worker kept credit: %+v", res)
	}
	if res.TasksPerWorker[0] != 3 {
		t.Errorf("survivor should end up with every task: %+v", res)
	}
	// w0's in-flight t2 bounces at the boundary; it then runs the
	// re-queued t1 and t2 back to back from 1.5.
	if math.Abs(res.Makespan-3.5) > 1e-9 {
		t.Errorf("makespan = %v, want 3.5", res.Makespan)
	}
	// The counterpart: dying after the job completed is free.
	res, err = ScheduleWithFailures(pl, tasks, []Failure{{Worker: 1, Time: 2.5}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reexecutions != 0 || res.TasksPerWorker[1] != 1 || res.Makespan != 2 {
		t.Errorf("post-completion death should be free: %+v", res)
	}
}

func TestDESMatchesEpochOnKnownScenarios(t *testing.T) {
	pl, err := platform.FromSpeeds([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	tasks, _ := UniformTasks(10, 0, 1)
	res, err := ScheduleWithFailures(pl, tasks, []Failure{{Worker: 1, Time: 3.5}})
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksPerWorker[1] != 0 || res.TasksPerWorker[0] != 10 ||
		res.Reexecutions != 3 || res.LostWork != 3 || res.Makespan < 10 {
		t.Errorf("diverged on the reference scenario: %+v", res)
	}

	if _, err := ScheduleWithFailures(pl, tasks, []Failure{{Worker: 0, Time: 1}, {Worker: 1, Time: 1}}); err == nil {
		t.Error("killing every worker mid-job should fail")
	}
	if _, err := ScheduleWithFailures(pl, []TaskSpec{{Work: -1}}, nil); err == nil {
		t.Error("negative work accepted")
	}
	if _, err := ScheduleWithFailures(pl, tasks, []Failure{{Worker: 9, Time: 1}}); err == nil {
		t.Error("unknown worker accepted")
	}
	if _, err := ScheduleWithFailures(pl, tasks, []Failure{{Worker: 0, Time: -2}}); err == nil {
		t.Error("negative failure time accepted")
	}
}

func TestDESDuplicateFailureIsNoop(t *testing.T) {
	pl, err := platform.FromSpeeds([]float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	tasks, _ := UniformTasks(9, 0, 1)
	a, err := ScheduleWithFailures(pl, tasks, []Failure{{Worker: 2, Time: 1.5}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ScheduleWithFailures(pl, tasks, []Failure{{Worker: 2, Time: 1.5}, {Worker: 2, Time: 2.5}})
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.Reexecutions != b.Reexecutions || a.LostWork != b.LostWork {
		t.Errorf("duplicate failure of a dead worker changed the outcome: %+v vs %+v", a, b)
	}
}
