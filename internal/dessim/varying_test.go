package dessim

import (
	"math"
	"testing"
)

func unitEpochs(p int) []Epoch {
	f := make([]float64, p)
	for i := range f {
		f[i] = 1
	}
	return []Epoch{{Until: math.Inf(1), Factor: f}}
}

func TestVaryingConstantMatchesPlainDemandDriven(t *testing.T) {
	p := mustPlatform(t, 1, 3, 2)
	tasks := make([]Task, 30)
	for i := range tasks {
		tasks[i] = Task{Data: 0.5, Work: 2}
	}
	plain, err := RunDemandDriven(p, tasks, ParallelLinks)
	if err != nil {
		t.Fatal(err)
	}
	varying, err := RunDemandDrivenVarying(p, tasks, unitEpochs(3))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plain.Makespan-varying.Makespan) > 1e-9 {
		t.Errorf("constant profile: %v vs plain %v", varying.Makespan, plain.Makespan)
	}
	if math.Abs(plain.UsefulWork()-varying.UsefulWork()) > 1e-9 {
		t.Error("work accounting differs")
	}
}

func TestVaryingSlowdownShiftsWork(t *testing.T) {
	// Two equal workers; worker 0 drops to 1% speed at t=5. The demand-
	// driven pool must route the tail to worker 1.
	p := mustPlatform(t, 1, 1)
	tasks := make([]Task, 20)
	for i := range tasks {
		tasks[i] = Task{Data: 0, Work: 1}
	}
	epochs := []Epoch{
		{Until: 5, Factor: []float64{1, 1}},
		{Until: math.Inf(1), Factor: []float64{0.01, 1}},
	}
	tl, err := RunDemandDrivenVarying(p, tasks, epochs)
	if err != nil {
		t.Fatal(err)
	}
	counts := computeCounts(tl)
	if counts[0]+counts[1] != 20 {
		t.Fatalf("counts %v", counts)
	}
	// Without the slowdown it would be 10/10; with it, worker 1 does the
	// bulk.
	if counts[1] < 13 {
		t.Errorf("healthy worker got %d tasks, expected most of the tail", counts[1])
	}
	mustCheck(t, tl)
}

func TestVaryingFrozenWorkerRetires(t *testing.T) {
	// Worker 0 freezes permanently at t=0; worker 1 does everything.
	p := mustPlatform(t, 1, 1)
	tasks := make([]Task, 6)
	for i := range tasks {
		tasks[i] = Task{Work: 1}
	}
	epochs := []Epoch{{Until: math.Inf(1), Factor: []float64{0, 1}}}
	tl, err := RunDemandDrivenVarying(p, tasks, epochs)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.Spans[0]) != 0 {
		t.Errorf("frozen worker recorded intervals: %v", tl.Spans[0])
	}
	if tl.Makespan != 6 {
		t.Errorf("makespan = %v, want 6", tl.Makespan)
	}
}

func TestVaryingAllFrozenFails(t *testing.T) {
	p := mustPlatform(t, 1)
	epochs := []Epoch{{Until: math.Inf(1), Factor: []float64{0}}}
	if _, err := RunDemandDrivenVarying(p, []Task{{Work: 1}}, epochs); err == nil {
		t.Error("a fully starved pool should fail")
	}
}

func TestVaryingFinishAcrossEpochs(t *testing.T) {
	// Speed 2, factor 1 until t=3 then 0.5: 10 work from t=1:
	// [1,3): rate 2 → 4 done; remaining 6 at rate 1 → finishes at 3+6=9.
	pl := mustPlatform(t, 2)
	epochs := []Epoch{
		{Until: 3, Factor: []float64{1}},
		{Until: math.Inf(1), Factor: []float64{0.5}},
	}
	got := finishAcross(epochs, pl, 0, 1, 10)
	if math.Abs(got-9) > 1e-12 {
		t.Errorf("finish = %v, want 9", got)
	}
	// Zero work completes instantly.
	if finishAcross(epochs, pl, 0, 4, 0) != 4 {
		t.Error("zero work should finish at start")
	}
}

func TestVaryingEpochValidation(t *testing.T) {
	p := mustPlatform(t, 1, 1) // two workers
	cases := [][]Epoch{
		nil,
		{{Until: math.Inf(1), Factor: []float64{1}}},                                         // wrong width
		{{Until: 5, Factor: []float64{1, 1}}},                                                // finite last epoch
		{{Until: math.Inf(1), Factor: []float64{-1, 1}}},                                     // negative factor
		{{Until: 0, Factor: []float64{1, 1}}, {Until: math.Inf(1), Factor: []float64{1, 1}}}, // non-increasing boundary
	}
	for i, epochs := range cases {
		if _, err := RunDemandDrivenVarying(p, []Task{{Work: 1}}, epochs); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	if _, err := RunDemandDrivenVarying(p, []Task{{Work: -1}}, unitEpochs(2)); err == nil {
		t.Error("negative work should fail")
	}
}
