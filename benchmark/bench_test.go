package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"regexp"
	"slices"
	"testing"
)

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30}
	for _, c := range []struct{ q, want float64 }{{0.5, 30}, {0.9, 50}, {0.2, 10}, {0.21, 20}, {1, 50}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no sample should be NaN")
	}
	if xs[0] != 50 {
		t.Error("percentile reordered its input")
	}
}

func TestWindowMedian(t *testing.T) {
	// 50 samples → 5 windows of 10. Two windows hold a hiccup in their
	// tail; the median window's p90 is an undisturbed one's.
	xs := make([]float64, 50)
	for i := range xs {
		xs[i] = 10 + float64(i%10)
		if i%10 >= 8 && (i/10 == 1 || i/10 == 3) {
			xs[i] = 90
		}
	}
	if got := windowPercentile(xs, 0.9); got != 18 {
		t.Errorf("median window p90 = %v, want 18", got)
	}
	// Three disturbed windows out of five do move it.
	xs[48], xs[49] = 90, 90
	if got := windowPercentile(xs, 0.9); got != 90 {
		t.Errorf("median window p90 = %v, want 90", got)
	}
	// Fewer samples than windows: one window per sample.
	var cuts [][2]int
	got := windowMedian(3, func(lo, hi int) float64 {
		cuts = append(cuts, [2]int{lo, hi})
		return float64(lo)
	})
	if got != 1 || len(cuts) != 3 || cuts[2] != [2]int{2, 3} {
		t.Errorf("windowMedian(3) = %v over %v", got, cuts)
	}
	// Uneven division: the windows still tile [0, n).
	cuts = nil
	windowMedian(13, func(lo, hi int) float64 {
		cuts = append(cuts, [2]int{lo, hi})
		return 0
	})
	for w, c := range cuts {
		if c[1] <= c[0] || (w > 0 && c[0] != cuts[w-1][1]) {
			t.Errorf("windows of 13: %v", cuts)
		}
	}
	if len(cuts) != windows || cuts[0][0] != 0 || cuts[windows-1][1] != 13 {
		t.Errorf("windows of 13: %v", cuts)
	}
	if !math.IsNaN(windowMedian(0, nil)) {
		t.Error("windowMedian of no sample should be NaN")
	}
}

func TestSummarize(t *testing.T) {
	// A closed loop of 40 ops of 1 s each, back to back; the eight ops of
	// the third window run twice as slow. 24 CPU-s over the phase.
	m := &measurement{cpuSeconds: 24}
	now := 0.0
	for i := 0; i < 40; i++ {
		d := 1.0
		if i/8 == 2 {
			d = 2
		}
		now += d
		m.samples = append(m.samples, sample{due: now - d, end: now, ok: true})
	}
	got := summarize(m)
	if got.n != 40 || got.p50 != 1000 || got.p90 != 1000 || got.opsPerSec != 1 || got.cpuMsPerOp != 600 {
		t.Errorf("one slow window: %+v", got)
	}
	// A failed op misses every statistic; its time falls to the window it
	// lies in (7 ops over 8 s) and its CPU to the ops that did complete.
	for i := range m.samples {
		m.samples[i].ok = i%8 != 3
	}
	got = summarize(m)
	if got.n != 35 || got.p50 != 1000 || math.Abs(got.opsPerSec-7.0/8) > 1e-12 || math.Abs(got.cpuMsPerOp-24000.0/35) > 1e-9 {
		t.Errorf("a failed op per window: %+v", got)
	}
	if got := summarize(&measurement{samples: []sample{{end: 1}}}); got != (summary{}) {
		t.Errorf("no ok sample: %+v", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestPoissonSchedule(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(7)), 5000, 50)
	b := poissonSchedule(rand.New(rand.NewSource(7)), 5000, 50)
	if len(a) != 5000 || len(b) != 5000 {
		t.Fatalf("%d and %d arrivals, want 5000", len(a), len(b))
	}
	prev := 0.0
	gaps := make([]float64, len(a))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, arrival %d differs", i)
		}
		if a[i] < prev || a[i] >= 50 {
			t.Fatalf("arrival %d at %v: not in order inside the horizon", i, a[i])
		}
		gaps[i], prev = a[i]-prev, a[i]
	}
	// Exponential gaps of mean 10 ms: the median is mean·ln 2.
	if m := median(gaps); math.Abs(m-0.01*math.Ln2) > 0.001 {
		t.Errorf("median gap %v, want about %v", m, 0.01*math.Ln2)
	}
	// Every fifth of the horizon holds a fifth of the arrivals.
	for s := 0; s < windows; s++ {
		if lo, hi := a[s*1000], a[s*1000+999]; lo < float64(10*s) || hi >= float64(10*(s+1)) {
			t.Errorf("stratum %d spans [%v, %v]", s, lo, hi)
		}
	}
	if c := poissonSchedule(rand.New(rand.NewSource(8)), 5000, 50); c[0] == a[0] {
		t.Error("another seed gave the same stream")
	}
	if c := poissonSchedule(rand.New(rand.NewSource(8)), 7, 50); len(c) != 7 {
		t.Errorf("%d arrivals, want 7", len(c))
	}
}

func TestDeckKeepsTheMix(t *testing.T) {
	deck := modeledSizes.deck(rand.New(rand.NewSource(3)), 640)
	count := map[int]int{}
	for _, n := range deck {
		count[n]++
	}
	if len(deck) != 640 || count[48] != 320 || count[64] != 192 || count[96] != 128 {
		t.Errorf("deck of %d: %v", len(deck), count)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{0, 10}
	got := selfTime(parent, []interval{{1, 3}, {2, 5}, {8, 12}, {-4, -1}})
	// Covered: [1,5) and [8,10) = 6 of 10.
	if got != 4 {
		t.Errorf("self time %v, want 4", got)
	}
	if got := selfTime(parent, nil); got != 10 {
		t.Errorf("childless self time %v, want 10", got)
	}
}

func TestLayerTimesSumToLatency(t *testing.T) {
	// op [0,10]: Submit [0,2], Wait [2,9] with derived queued [1,4]
	// (clipped to [2,4]) and exec [4,9] whose two workers compute
	// [4,7]/[5,8] and transfer [8,8.5]; Check [9,9.5].
	spans := []span{
		{ID: 0, Parent: -1, Layer: "benchmark", Start: 0, End: 10},
		{ID: 1, Parent: 0, Layer: "service", Start: 0, End: 2},
		{ID: 2, Parent: 0, Layer: "service", Start: 2, End: 9},
		{ID: 3, Parent: 2, Layer: "service", Start: 1, End: 4},
		{ID: 4, Parent: 2, Layer: "service", Start: 4, End: 9},
		{ID: 5, Parent: 4, Layer: "matmul", Start: 4, End: 7, Worker: 1},
		{ID: 6, Parent: 4, Layer: "matmul", Start: 5, End: 8, Worker: 2},
		{ID: 7, Parent: 4, Layer: "runtime", Start: 7.5, End: 8.5, Worker: 1},
		{ID: 8, Parent: 0, Layer: "trace", Start: 9, End: 9.5},
	}
	got := layerTimes(spans)
	want := map[string]float64{
		"benchmark": 0.5,         // [9.5,10]
		"service":   2 + 2 + 0.5, // Submit, queued [2,4], exec's idle [8.5,9]
		"matmul":    4,           // [4,8]
		"runtime":   0.5,         // [8,8.5]: the part no compute span covers
		"trace":     0.5,
	}
	for layer, w := range want {
		if math.Abs(got[layer]-w) > 1e-12 {
			t.Errorf("%s: %v, want %v", layer, got[layer], w)
		}
	}
	if e := selfSumError(got, 10); e > 1e-12 {
		t.Errorf("layer times miss the latency by %v", e)
	}
	// A child reaching outside its parent shows up as an error, not as time.
	spans[8].End = 10.5
	if e := selfSumError(layerTimes(spans), 10); e > 1e-12 {
		t.Errorf("clipping failed: error %v", e)
	}
}

func TestRecorderKeepsChunkSpansForDetailOpsOnly(t *testing.T) {
	rec := newRecorder()
	for op := 0; op < detailOps+2; op++ {
		tr := rec.begin(phaseClock{}, blockSeconds) // the second block is a traced one
		tr.add(span{Name: "chunk", Parent: rootSpan, Start: 0, End: 1, Worker: 1, perChunk: true})
		tr.endOp(1)
		tr.finish()
	}
	chunks := 0
	ids := map[int]bool{}
	for _, s := range rec.spans {
		if s.perChunk {
			chunks++
		}
		if ids[s.ID] {
			t.Fatalf("span id %d used twice", s.ID)
		}
		ids[s.ID] = true
	}
	if chunks != detailOps || rec.ops != detailOps+2 {
		t.Errorf("%d chunk spans over %d ops, want %d over %d", chunks, rec.ops, detailOps, detailOps+2)
	}
	none := rec.begin(phaseClock{}, 0) // the first block is untraced
	none.end(none.start("x", "y", rootSpan))
	none.endOp(1) // the untraced op records nothing and must not panic
	if none.finish() != nil {
		t.Error("nil trace returned layer times")
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric and
// workload tables one thing, inside the limits the benchmark contract sets.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(raw))
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != runSeconds || !slices.Equal(spec.Paths, []string{"benchmark"}) ||
		!slices.Equal(spec.Command, []string{"bash", "benchmark/run.sh"}) {
		t.Errorf("command %v, paths %v, run_seconds %d", spec.Command, spec.Paths, spec.RunSeconds)
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in metrics.go", len(got), kind, len(want))
		}
		for i, d := range want {
			if got[i] != (metric{d.name, d.unit, d.better, d.bound}) {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, metrics.go %+v", kind, i, got[i], d)
			}
		}
	}
	same("end-to-end", spec.EndToEnd, endToEnd)
	same("per-layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in metrics.go", len(spec.Workloads), len(workloadDefs))
	}
	for i, w := range workloadDefs {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, metrics.go %+v", i, spec.Workloads[i], w)
		}
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(d metricDef) {
		if !name.MatchString(d.name) || !unit.MatchString(d.unit) || seen[d.name] {
			t.Errorf("metric %q unit %q: bad or repeated", d.name, d.unit)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("metric %q: better=%q", d.name, d.better)
		}
		seen[d.name] = true
	}
	setup := false
	for _, d := range endToEnd {
		check(d)
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("metric %q: bound %v", d.name, d.bound)
		}
		setup = setup || (d.name == "setup_s" && d.unit == "s" && d.better == "lower")
	}
	if !setup {
		t.Error("no setup_s among the end-to-end metrics")
	}
	for _, d := range perLayer {
		check(d)
		if d.moves == "" || d.bound != 0 {
			t.Errorf("per-layer metric %q: it must say what it should move and carry no bound", d.name)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics", len(perLayer), len(endToEnd))
	}
	for _, w := range workloadDefs {
		if !name.MatchString(w.name) || len(w.why) > 200 || seen[w.name] {
			t.Errorf("workload %q: bad name, repeated, or a why of %d characters", w.name, len(w.why))
		}
		seen[w.name] = true
		if setups[w.name] == nil {
			t.Errorf("workload %q has no set-up", w.name)
		}
	}
}

// TestMiniaturePass runs every workload for a fraction of a second, with
// tracing off and traced, so the benchmark keeps compiling, running and
// passing its own output checks. It builds cmd/nlfl, so it needs the
// repository around it.
func TestMiniaturePass(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the program under test")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, w := range workloadDefs {
		for _, traced := range []bool{false, true} {
			res, err := runOne(runOptions{workload: w.name, seed: 7, seconds: 0.3, traced: traced, setupReps: 1}, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v, %d of %d failed", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.name]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%v: metric %s missing or not a number", w.name, traced, d.name)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.name, v.Value)
				}
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s: result does not marshal: %v", w.name, err)
			}
		}
	}
}
