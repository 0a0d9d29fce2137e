package dessim

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"nlfl/internal/platform"
	"nlfl/internal/stats"
	"nlfl/internal/trace"
)

func mustPlatform(t *testing.T, speeds ...float64) *platform.Platform {
	t.Helper()
	p, err := platform.FromSpeeds(speeds)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// mustCheck fails the test on any structural violation the trace oracle
// finds in tl.
func mustCheck(t *testing.T, tl *trace.Timeline) {
	t.Helper()
	if err := trace.Must(trace.Check(tl, nil)); err != nil {
		t.Error(err)
	}
}

// finishTimes returns each worker's last span end (0 for an idle worker).
func finishTimes(tl *trace.Timeline) []float64 {
	out := make([]float64, tl.Workers())
	for w, spans := range tl.Spans {
		for _, s := range spans {
			out[w] = math.Max(out[w], s.End)
		}
	}
	return out
}

// computeCounts returns the number of compute spans on each worker.
func computeCounts(tl *trace.Timeline) []int {
	out := make([]int, tl.Workers())
	for w, spans := range tl.Spans {
		for _, s := range spans {
			if s.Kind == trace.Compute {
				out[w]++
			}
		}
	}
	return out
}

func TestSingleRoundParallelLinks(t *testing.T) {
	// Two unit-speed unit-bandwidth workers each get 4 data / 4 work:
	// recv [0,4], compute [4,8] — the N/P·c + (N/P)·w formula of §2 with
	// α=1.
	p := mustPlatform(t, 1, 1)
	tl, err := RunSingleRound(p, []Chunk{
		{Worker: 0, Data: 4, Work: 4},
		{Worker: 1, Data: 4, Work: 4},
	}, ParallelLinks)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Makespan != 8 {
		t.Errorf("makespan = %v, want 8", tl.Makespan)
	}
	mustCheck(t, tl)
	if tl.CommVolume() != 8 || tl.UsefulWork() != 8 {
		t.Errorf("volume=%v work=%v, want 8/8", tl.CommVolume(), tl.UsefulWork())
	}
	ft := finishTimes(tl)
	if ft[0] != 8 || ft[1] != 8 {
		t.Errorf("finish times = %v", ft)
	}
}

func TestSingleRoundOnePortSerializesSends(t *testing.T) {
	p := mustPlatform(t, 1, 1)
	tl, err := RunSingleRound(p, []Chunk{
		{Worker: 0, Data: 4, Work: 4},
		{Worker: 1, Data: 4, Work: 4},
	}, OnePort)
	if err != nil {
		t.Fatal(err)
	}
	// Worker 1's receive must wait for worker 0's: [4,8], compute [8,12].
	if tl.Makespan != 12 {
		t.Errorf("makespan = %v, want 12", tl.Makespan)
	}
	iv := tl.Spans[1][0]
	if iv.Start != 4 || iv.End != 8 {
		t.Errorf("worker 1 receive = [%v,%v], want [4,8]", iv.Start, iv.End)
	}
}

func TestSingleRoundHeterogeneousSpeeds(t *testing.T) {
	// Worker speeds 1 and 4; same chunk → 4x faster compute on worker 1.
	p := mustPlatform(t, 1, 4)
	tl, err := RunSingleRound(p, []Chunk{
		{Worker: 0, Data: 2, Work: 8},
		{Worker: 1, Data: 2, Work: 8},
	}, ParallelLinks)
	if err != nil {
		t.Fatal(err)
	}
	ct := tl.ComputeTimes()
	if ct[0] != 8 || ct[1] != 2 {
		t.Errorf("compute times = %v, want [8 2]", ct)
	}
}

func TestSingleRoundMultipleChunksPerWorkerQueueOnCPU(t *testing.T) {
	p := mustPlatform(t, 1)
	tl, err := RunSingleRound(p, []Chunk{
		{Worker: 0, Data: 1, Work: 5},
		{Worker: 0, Data: 1, Work: 5},
	}, ParallelLinks)
	if err != nil {
		t.Fatal(err)
	}
	// recv1 [0,1] comp1 [1,6]; recv2 [1,2] comp2 [6,11].
	if tl.Makespan != 11 {
		t.Errorf("makespan = %v, want 11", tl.Makespan)
	}
	mustCheck(t, tl)
}

func TestSingleRoundValidation(t *testing.T) {
	p := mustPlatform(t, 1)
	if _, err := RunSingleRound(p, []Chunk{{Worker: 5, Data: 1, Work: 1}}, ParallelLinks); err == nil {
		t.Error("unknown worker should fail")
	}
	if _, err := RunSingleRound(p, []Chunk{{Worker: 0, Data: -1, Work: 1}}, ParallelLinks); err == nil {
		t.Error("negative data should fail")
	}
}

func TestDemandDrivenFasterWorkerGetsMoreTasks(t *testing.T) {
	// Speeds 1 and 3: worker 1 should process ~3x the tasks when
	// communication is negligible.
	p := mustPlatform(t, 1, 3)
	tasks := make([]Task, 40)
	for i := range tasks {
		tasks[i] = Task{Data: 0.001, Work: 1}
	}
	tl, err := RunDemandDriven(p, tasks, ParallelLinks)
	if err != nil {
		t.Fatal(err)
	}
	counts := computeCounts(tl)
	if counts[0]+counts[1] != 40 {
		t.Fatalf("task counts = %v, want total 40", counts)
	}
	ratio := float64(counts[1]) / float64(counts[0])
	if ratio < 2.5 || ratio > 3.5 {
		t.Errorf("fast/slow task ratio = %v (counts %v), want ≈3", ratio, counts)
	}
	mustCheck(t, tl)
}

func TestDemandDrivenLoadBalance(t *testing.T) {
	// With many small tasks the demand-driven imbalance must be tiny —
	// the paper's premise that MapReduce-style scheduling balances load
	// "almost perfectly" given enough chunks.
	r := stats.NewRNG(3)
	p, err := platform.Generate(8, stats.Uniform{Lo: 1, Hi: 100}, r)
	if err != nil {
		t.Fatal(err)
	}
	tasks := make([]Task, 4000)
	for i := range tasks {
		tasks[i] = Task{Data: 0, Work: 1}
	}
	tl, err := RunDemandDriven(p, tasks, ParallelLinks)
	if err != nil {
		t.Fatal(err)
	}
	// When a worker finishes and tasks remain, it immediately claims one,
	// so every worker is busy until the pool drains: its slack w.r.t. the
	// makespan is at most the duration of one task on the slowest worker.
	maxTask := 1 / p.MinSpeed()
	for i, ft := range finishTimes(tl) {
		if slack := tl.Makespan - ft; slack > maxTask+1e-9 {
			t.Errorf("worker %d finishes %v early (> slowest task %v)", i, slack, maxTask)
		}
	}
}

func TestDemandDrivenAllTasksExactlyOnce(t *testing.T) {
	p := mustPlatform(t, 2, 5, 1)
	tasks := make([]Task, 25)
	for i := range tasks {
		tasks[i] = Task{Data: 1, Work: 3}
	}
	tl, err := RunDemandDriven(p, tasks, OnePort)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]int{}
	for _, spans := range tl.Spans {
		for _, s := range spans {
			if s.Kind == trace.Compute {
				seen[s.Task]++
			}
		}
	}
	if len(seen) != 25 {
		t.Fatalf("computed %d distinct tasks, want 25", len(seen))
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("task %d computed %d times", id, n)
		}
	}
	mustCheck(t, tl)
}

func TestDemandDrivenOnePortSerializesMaster(t *testing.T) {
	p := mustPlatform(t, 1, 1)
	tasks := []Task{{Data: 10, Work: 0.1}, {Data: 10, Work: 0.1}}
	tl, err := RunDemandDriven(p, tasks, OnePort)
	if err != nil {
		t.Fatal(err)
	}
	// Two receives must not overlap anywhere on the master port.
	var recvs []trace.Span
	for _, spans := range tl.Spans {
		for _, s := range spans {
			if s.Kind == trace.Comm {
				recvs = append(recvs, s)
			}
		}
	}
	if len(recvs) != 2 {
		t.Fatalf("want 2 receives, got %d", len(recvs))
	}
	a, b := recvs[0], recvs[1]
	if a.Start < b.End && b.Start < a.End {
		t.Errorf("one-port receives overlap: %+v %+v", a, b)
	}
}

func TestDemandDrivenRejectsNegativeTask(t *testing.T) {
	p := mustPlatform(t, 1)
	if _, err := RunDemandDriven(p, []Task{{Data: -1, Work: 1}}, ParallelLinks); err == nil {
		t.Error("negative data should fail")
	}
}

func TestTimelineMetrics(t *testing.T) {
	tl := trace.New(2)
	tl.Add(0, trace.Span{Kind: trace.Comm, Start: 0, End: 1, Data: 3})
	tl.Add(0, trace.Span{Kind: trace.Compute, Start: 1, End: 5, Work: 4})
	tl.Add(1, trace.Span{Kind: trace.Compute, Start: 0, End: 2, Work: 2})
	if tl.Makespan != 5 {
		t.Errorf("makespan = %v", tl.Makespan)
	}
	if tl.CommVolume() != 3 || tl.UsefulWork() != 6 {
		t.Errorf("volume/work = %v/%v", tl.CommVolume(), tl.UsefulWork())
	}
	if got := tl.Imbalance(); got != 1 {
		t.Errorf("imbalance = %v, want (4-2)/2 = 1", got)
	}
	if got := trace.MetricsOf(tl).Utilization; got != 0.6 {
		t.Errorf("utilization = %v, want 6/(5·2) = 0.6", got)
	}
}

func TestLoadImbalanceEdgeCases(t *testing.T) {
	empty := trace.New(2)
	if empty.Imbalance() != 0 {
		t.Error("empty timeline imbalance should be 0")
	}
	oneIdle := trace.New(2)
	oneIdle.Add(0, trace.Span{Kind: trace.Compute, Start: 0, End: 1, Work: 1})
	if !math.IsInf(oneIdle.Imbalance(), 1) {
		t.Error("idle worker should give +Inf imbalance")
	}
}

func TestTimelineValidateCatchesOverlap(t *testing.T) {
	tl := trace.New(1)
	tl.Add(0, trace.Span{Kind: trace.Compute, Start: 0, End: 3})
	tl.Add(0, trace.Span{Kind: trace.Compute, Start: 2, End: 4})
	if trace.Check(tl, nil) == nil {
		t.Error("overlapping intervals should fail validation")
	}
	bad := trace.New(1)
	bad.Add(0, trace.Span{Kind: trace.Compute, Start: 3, End: 1})
	if trace.Check(bad, nil) == nil {
		t.Error("negative-duration interval should fail validation")
	}
}

func TestGanttRendering(t *testing.T) {
	tl := trace.New(2)
	tl.Add(0, trace.Span{Kind: trace.Comm, Start: 0, End: 2, Data: 1})
	tl.Add(0, trace.Span{Kind: trace.Compute, Start: 2, End: 10, Work: 1})
	tl.Add(1, trace.Span{Kind: trace.Compute, Start: 0, End: 5, Work: 1})
	out := tl.Gantt(40)
	if !strings.Contains(out, "#") || !strings.Contains(out, "-") {
		t.Errorf("gantt missing glyphs:\n%s", out)
	}
	if trace.New(1).Gantt(10) != "(empty timeline)\n" {
		t.Error("empty gantt mis-rendered")
	}
}

func TestIntervalKindString(t *testing.T) {
	if trace.Comm.String() != "comm" || trace.Compute.String() != "compute" {
		t.Error("kind names changed")
	}
	if trace.SpanKind(9).String() == "" {
		t.Error("unknown kind should render")
	}
	if ParallelLinks.String() != "parallel-links" || OnePort.String() != "one-port" {
		t.Error("mode names changed")
	}
	if CommMode(9).String() == "" {
		t.Error("unknown mode should render")
	}
}

// Property: demand-driven execution preserves total work and communication
// volume regardless of platform and mode, and the timeline is causal.
func TestDemandDrivenConservationProperty(t *testing.T) {
	f := func(seed int64, nTasks uint8, nWorkers uint8, onePort bool) bool {
		nw := int(nWorkers%8) + 1
		nt := int(nTasks % 64)
		r := stats.NewRNG(seed)
		p, err := platform.Generate(nw, stats.Uniform{Lo: 0.5, Hi: 10}, r)
		if err != nil {
			return false
		}
		tasks := make([]Task, nt)
		totData, totWork := 0.0, 0.0
		for i := range tasks {
			tasks[i] = Task{Data: r.Float64() * 5, Work: r.Float64() * 5}
			totData += tasks[i].Data
			totWork += tasks[i].Work
		}
		mode := ParallelLinks
		if onePort {
			mode = OnePort
		}
		tl, err := RunDemandDriven(p, tasks, mode)
		if err != nil {
			return false
		}
		return math.Abs(tl.CommVolume()-totData) < 1e-6 &&
			math.Abs(tl.UsefulWork()-totWork) < 1e-6 &&
			len(trace.Check(tl, nil)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
