package mapreduce_test

import (
	"reflect"
	"testing"
	"testing/quick"

	"nlfl/internal/dessim"
	"nlfl/internal/faults"
	"nlfl/internal/platform"
	"nlfl/internal/stats"
	"nlfl/internal/trace"
)

// The master that places this package's map tasks is
// faults.RunResilientDemandDriven: idle workers ask for the next task,
// stragglers get backups, and a crash costs only the task in flight.
// These tests pin its MapReduce guarantees on pools of unit map tasks.

func speeds(t *testing.T, s ...float64) *platform.Platform {
	t.Helper()
	pl, err := platform.FromSpeeds(s)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func unitTasks(n int) []dessim.Task {
	tasks := make([]dessim.Task, n)
	for i := range tasks {
		tasks[i] = dessim.Task{Work: 1}
	}
	return tasks
}

// Demand-driven placement without faults or speculation: the fast worker
// takes its speed's share of the pool.
func TestScheduleBasics(t *testing.T) {
	rep, err := faults.RunResilientDemandDriven(speeds(t, 1, 3), unitTasks(40), faults.Scenario{}, faults.ResilientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.TasksPerWorker, []int{10, 30}) {
		t.Errorf("task counts %v, want [10 30]", rep.TasksPerWorker)
	}
	if rep.Backups != 0 || rep.WastedWork != 0 {
		t.Errorf("speculation disabled but backups ran: %+v", rep)
	}
}

// An empty fault scenario costs nothing: every task runs once and the
// makespan is the pool's work over the total speed.
func TestScheduleWithFailuresNoFailures(t *testing.T) {
	rep, err := faults.RunResilientDemandDriven(speeds(t, 1, 3), unitTasks(40), faults.Scenario{}, faults.ResilientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range rep.TasksPerWorker {
		total += c
	}
	if total != 40 || rep.Reexecutions != 0 || rep.LostWork != 0 {
		t.Errorf("clean run: %+v", rep)
	}
	if rep.Makespan != 10 {
		t.Errorf("makespan %v, want 10", rep.Makespan)
	}
}

// Killing the only worker mid-job leaves nobody to finish it.
func TestAllWorkersDeadFails(t *testing.T) {
	if _, err := faults.RunResilientDemandDriven(speeds(t, 1), unitTasks(10), faults.SingleCrash(0, 1), faults.ResilientOptions{}); err == nil {
		t.Error("killing the only worker mid-job should fail")
	}
}

func TestFailureValidation(t *testing.T) {
	pl := speeds(t, 1, 1)
	tasks := unitTasks(2)
	if _, err := faults.RunResilientDemandDriven(pl, tasks, faults.SingleCrash(9, 1), faults.ResilientOptions{}); err == nil {
		t.Error("unknown worker should fail")
	}
	if _, err := faults.RunResilientDemandDriven(pl, tasks, faults.SingleCrash(0, -1), faults.ResilientOptions{}); err == nil {
		t.Error("negative time should fail")
	}
	if _, err := faults.RunResilientDemandDriven(pl, []dessim.Task{{Work: -1}}, faults.Scenario{}, faults.ResilientOptions{}); err == nil {
		t.Error("negative work should fail")
	}
}

// crashTwice runs nine unit tasks on three unit workers with worker 2
// crashing at t=1.5, once alone and once followed by a second crash of
// the same, already dead, worker at t=2.5.
func crashTwice(t *testing.T) (once, twice *faults.Report) {
	t.Helper()
	pl := speeds(t, 1, 1, 1)
	tasks := unitTasks(9)
	once, err := faults.RunResilientDemandDriven(pl, tasks, faults.SingleCrash(2, 1.5), faults.ResilientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sc := faults.Scenario{Events: []faults.Event{
		{Kind: faults.Crash, Worker: 2, Time: 1.5},
		{Kind: faults.Crash, Worker: 2, Time: 2.5},
	}}
	twice, err = faults.RunResilientDemandDriven(pl, tasks, sc, faults.ResilientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return once, twice
}

func TestDoubleFailureSameWorkerIdempotent(t *testing.T) {
	a, b := crashTwice(t)
	if a.Makespan != b.Makespan || a.Reexecutions != b.Reexecutions || a.LostWork != b.LostWork ||
		!reflect.DeepEqual(a.TasksPerWorker, b.TasksPerWorker) {
		t.Errorf("second failure of a dead worker changed the outcome: %+v vs %+v", a, b)
	}
}

// The duplicate crash leaves no mark on the event record either.
func TestDESDuplicateFailureIsNoop(t *testing.T) {
	a, b := crashTwice(t)
	if !reflect.DeepEqual(a.Trace, b.Trace) {
		t.Errorf("duplicate failure of a dead worker changed the trace:\n%+v\n%+v", a.Trace, b.Trace)
	}
}

// Property: crashing k of p workers at one instant before the clean run
// ends, the job completes iff a worker survives. When it completes every
// task has one winning execution, a dead worker's wins all finished by
// the crash, and the makespan respects the capacity bound.
func TestFailureProperty(t *testing.T) {
	f := func(seed int64, nt uint8, when uint8) bool {
		r := stats.NewRNG(seed)
		pl, err := platform.Generate(2+r.Intn(5), stats.Uniform{Lo: 0.5, Hi: 4}, r)
		if err != nil {
			return false
		}
		tasks := unitTasks(int(nt%40) + 1)
		clean, err := faults.RunResilientDemandDriven(pl, tasks, faults.Scenario{}, faults.ResilientOptions{})
		if err != nil {
			return false
		}
		nKill := r.Intn(pl.P() + 1)
		ft := clean.Makespan * (0.05 + 0.9*float64(when)/255)
		var sc faults.Scenario
		for w := 0; w < nKill; w++ {
			sc.Events = append(sc.Events, faults.Event{Kind: faults.Crash, Worker: w, Time: ft})
		}
		rep, err := faults.RunResilientDemandDriven(pl, tasks, sc, faults.ResilientOptions{})
		if nKill == pl.P() {
			return err != nil
		}
		if err != nil {
			return false
		}
		total := 0
		for _, c := range rep.TasksPerWorker {
			total += c
		}
		for w := 0; w < nKill; w++ {
			for _, s := range rep.Trace.Spans[w] {
				if s.Kind == trace.Compute && s.Outcome == trace.OK && s.End > ft {
					return false
				}
			}
		}
		return total == len(tasks) && rep.Makespan >= float64(len(tasks))/pl.TotalSpeed()-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
