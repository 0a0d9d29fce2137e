package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"nlfl/internal/results"
)

// capture redirects stdout while f runs and returns what was printed.
func capture(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		buf := make([]byte, 0, 1<<16)
		tmp := make([]byte, 4096)
		for {
			n, err := r.Read(tmp)
			buf = append(buf, tmp[:n]...)
			if err != nil {
				break
			}
		}
		done <- string(buf)
	}()
	runErr := f()
	w.Close()
	os.Stdout = old
	out := <-done
	return out, runErr
}

func TestCLISubcommands(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want []string // substrings that must appear
	}{
		{"help", []string{"help"}, []string{"commands:", "fig4", "affinity"}},
		{"nonlinear", []string{"nonlinear", "-ps", "2,10"}, []string{"no free lunch", "0.9"}},
		{"analyze", []string{"analyze", "-kind", "power", "-alpha", "2", "-p", "100"},
			[]string{"not-divisible", "0.9900"}},
		{"analyze sort", []string{"analyze", "-kind", "sort", "-n", "1048576", "-p", "32"},
			[]string{"almost-divisible"}},
		{"rho", []string{"rho", "-ks", "1,16"}, []string{"measured ρ", "3.4"}},
		{"partition", []string{"partition", "-trials", "3"}, []string{"Ĉ/LB", "uniform[1,100]"}},
		{"outer", []string{"outer", "-p", "6"}, []string{"hom/k", "het:", "plan for"}},
		{"matmul", []string{"matmul", "-n", "32"}, []string{"naive kernel: true", "block-cyclic", "rect"}},
		{"mapreduce", []string{"mapreduce", "-demo", "6"}, []string{"naive-pairs", "correct=true"}},
		{"fig2", []string{"fig2", "-p", "4", "-w", "24", "-h", "8"}, []string{"half-perimeter", "+"}},
		{"affinity", []string{"affinity", "-p", "4", "-g", "10"},
			[]string{"no-cache", "cache", "affinity", "granularities"}},
		{"fig4 small", []string{"fig4", "-trials", "3", "-pmax", "20"},
			[]string{"Comm_het", "Comm_hom/k"}},
		{"fig4 csv", []string{"fig4", "-trials", "2", "-pmax", "10", "-csv"},
			[]string{"x,Comm_het"}},
		{"sort", []string{"sort", "-trials", "2"}, []string{"Theorem B.4", "log p/log N"}},
		{"bottleneck", []string{"bottleneck", "-p", "6"}, []string{"bandwidth", "Comm_hom/k"}},
		{"mrdlt", []string{"mrdlt", "-p", "4"}, []string{"equal split", "optimized", "speedup"}},
		{"polymul", []string{"polymul", "-n", "64"}, []string{"schoolbook", "karatsuba", "fft", "almost-divisible"}},
		{"adaptivity", []string{"adaptivity", "-p", "4", "-blocks", "64"},
			[]string{"residual speed", "static DLT", "demand-driven"}},
		{"gantt", []string{"gantt", "-p", "4", "-w", "40"}, []string{"#", "accomplishes"}},
		{"tree", []string{"tree", "-depth", "2", "-fanout", "2"},
			[]string{"nodes", "topology-free", "α=2"}},
		{"returns", []string{"returns", "-trials", "20"},
			[]string{"FIFO", "LIFO", "dominates"}},
		{"faults crash", []string{"faults", "-scenario", "crash", "-p", "6", "-tasks", "36", "-seed", "3"},
			[]string{"permanent crashes", "inflation", "dltLost", "vs bound", "in-flight chunks"}},
		{"faults straggler", []string{"faults", "-scenario", "straggler", "-p", "5", "-tasks", "30", "-seed", "2"},
			[]string{"slowed to 5%", "speculation", "backups", "no-free-lunch"}},
		{"faults flaky-link", []string{"faults", "-scenario", "flaky-link", "-p", "4", "-tasks", "24", "-seed", "4"},
			[]string{"drops 70%", "retries", "exponential backoff", "extraComm"}},
		{"trace resilient", []string{"trace", "-executor", "resilient", "-scenario", "crash", "-p", "4", "-tasks", "16", "-seed", "3"},
			[]string{"resilient executor", "P1", "invariants: ok", "useful work", "utilization"}},
		{"trace single-round", []string{"trace", "-executor", "single-round", "-scenario", "crash", "-p", "4", "-tasks", "16", "-seed", "3"},
			[]string{"single-round executor", "invariants: ok", "makespan"}},
		{"trace demand", []string{"trace", "-executor", "demand", "-p", "4", "-tasks", "16"},
			[]string{"demand executor", "invariants: ok"}},
		{"trace dlt", []string{"trace", "-executor", "dlt", "-p", "4", "-tasks", "16"},
			[]string{"dlt executor", "invariants: ok"}},
		{"trace sort", []string{"trace", "-executor", "sort", "-p", "4", "-tasks", "16"},
			[]string{"sort executor", "invariants: ok"}},
		{"trace flaky gantt", []string{"trace", "-executor", "resilient", "-scenario", "flaky-link", "-p", "4", "-tasks", "24", "-seed", "4", "-w", "60"},
			[]string{"%", "invariants: ok", "faults"}},
		{"recommend", []string{"recommend"},
			[]string{"← knee", "recommend 4 of 8 workers", "speedup 2.26×", "makespan 37.3 ms",
				"no slice of this fleet can beat 4.53×", "75% of the work undone", "speedup vs slice size"}},
		{"recommend unconstrained", []string{"recommend", "-bandwidth", "0", "-chart=false"},
			[]string{"recommend 8 of 8 workers", "0.00"}},
		{"recommend json", []string{"recommend", "-json"},
			[]string{`"knee": 4`, `"speedupBound"`, `"curve"`, `"unprocessedIfChunked"`}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out, err := capture(t, func() error { return run(c.args) })
			if err != nil {
				t.Fatalf("run(%v): %v", c.args, err)
			}
			for _, want := range c.want {
				if !strings.Contains(out, want) {
					t.Errorf("output missing %q:\n%s", want, truncate(out, 800))
				}
			}
		})
	}
}

// TestCLIBench runs the measured-performance harness end to end in its
// reduced configuration, round-trips the emitted artifacts through the
// -validate mode, and checks that broken flags fail.
func TestCLIBench(t *testing.T) {
	dir := t.TempDir()
	out, err := capture(t, func() error {
		return run([]string{"bench", "-quick", "-seed", "42", "-out", dir})
	})
	if err != nil {
		t.Fatalf("bench run: %v", err)
	}
	for _, want := range []string{"kernels (GOMAXPROCS", "runtime (rate", "hom/k", "het", "chaos sweep", "topology sweep", "crossover", "iterative sweep", "adaptive/oracle", "wrote"} {
		if !strings.Contains(out, want) {
			t.Errorf("bench output missing %q:\n%s", want, truncate(out, 800))
		}
	}
	out, err = capture(t, func() error {
		return run([]string{"bench", "-validate", "-out", dir})
	})
	if err != nil {
		t.Fatalf("bench -validate on freshly emitted artifacts: %v", err)
	}
	if !strings.Contains(out, "schema ok") {
		t.Errorf("validate output missing confirmation:\n%s", truncate(out, 800))
	}
	if _, err := capture(t, func() error {
		return run([]string{"bench", "-validate", "-out", t.TempDir()})
	}); err == nil {
		t.Error("bench -validate on an empty directory should fail")
	}
}

// TestCLIBenchChaos drives the chaos-only mode: the sweep must survive
// every fault class (the crash-at-t=0 edge case included), emit a
// BENCH_chaos.json that round-trips through -chaos -validate, and keep
// its volume ledger deterministic across reruns (wall-clock fields and
// retry counts are free to differ — see EXPERIMENTS.md).
func TestCLIBenchChaos(t *testing.T) {
	dirs := [2]string{t.TempDir(), t.TempDir()}
	var files [2]results.ChaosBenchFile
	for i, dir := range dirs {
		out, err := capture(t, func() error {
			return run([]string{"bench", "-chaos", "-quick", "-seed", "42", "-out", dir})
		})
		if err != nil {
			t.Fatalf("bench -chaos: %v\n%s", err, out)
		}
		for _, want := range []string{"chaos sweep", "crash-t0", "straggler", "flaky-link", "replanned", "wrote"} {
			if !strings.Contains(out, want) {
				t.Errorf("bench -chaos output missing %q:\n%s", want, truncate(out, 1200))
			}
		}
		files[i], err = results.LoadBenchChaos(dir + "/BENCH_chaos.json")
		if err != nil {
			t.Fatalf("emitted chaos artifact unreadable: %v", err)
		}
	}
	if len(files[0].Entries) != len(files[1].Entries) {
		t.Fatalf("entry counts differ across reruns: %d vs %d", len(files[0].Entries), len(files[1].Entries))
	}
	for i := range files[0].Entries {
		a, b := files[0].Entries[i], files[1].Entries[i]
		if a.Class != b.Class || a.Platform != b.Platform || a.Strategy != b.Strategy ||
			a.Chunks != b.Chunks || a.PlanVolume != b.PlanVolume {
			t.Errorf("entry %d geometry not deterministic: %+v vs %+v", i, a, b)
		}
	}

	out, err := capture(t, func() error {
		return run([]string{"bench", "-chaos", "-validate", "-out", dirs[0]})
	})
	if err != nil {
		t.Fatalf("bench -chaos -validate on freshly emitted artifact: %v", err)
	}
	if !strings.Contains(out, "BENCH_chaos.json: schema ok") {
		t.Errorf("chaos validate output missing confirmation:\n%s", truncate(out, 800))
	}
	if _, err := capture(t, func() error {
		return run([]string{"bench", "-chaos", "-validate", "-out", t.TempDir()})
	}); err == nil {
		t.Error("bench -chaos -validate on an empty directory should fail")
	}
}

// TestCLIBenchTopology drives the topology-only mode: the sweep must
// hold the crossover-shift gate (star yes, chain no), emit a
// BENCH_topology.json that round-trips through -topology -validate, and
// keep its volume geometry deterministic across reruns (makespans are
// free to differ — see EXPERIMENTS.md).
func TestCLIBenchTopology(t *testing.T) {
	dirs := [2]string{t.TempDir(), t.TempDir()}
	var files [2]results.TopologyBenchFile
	for i, dir := range dirs {
		out, err := capture(t, func() error {
			return run([]string{"bench", "-topology", "-quick", "-seed", "42", "-out", dir})
		})
		if err != nil {
			t.Fatalf("bench -topology: %v\n%s", err, out)
		}
		for _, want := range []string{"topology sweep", "star", "chain", "two-source",
			"crossover star", "crossover chain", "none (het never wins", "wrote"} {
			if !strings.Contains(out, want) {
				t.Errorf("bench -topology output missing %q:\n%s", want, truncate(out, 1200))
			}
		}
		files[i], err = results.LoadBenchTopology(dir + "/BENCH_topology.json")
		if err != nil {
			t.Fatalf("emitted topology artifact unreadable: %v", err)
		}
	}
	if len(files[0].Entries) != len(files[1].Entries) {
		t.Fatalf("entry counts differ across reruns: %d vs %d", len(files[0].Entries), len(files[1].Entries))
	}
	for i := range files[0].Entries {
		a, b := files[0].Entries[i], files[1].Entries[i]
		if a.Topology != b.Topology || a.Strategy != b.Strategy || a.Bandwidth != b.Bandwidth ||
			a.MeasuredVolume != b.MeasuredVolume || a.RelayVolume != b.RelayVolume {
			t.Errorf("entry %d geometry not deterministic: %+v vs %+v", i, a, b)
		}
	}
	for topo, bw := range map[string]float64{"star": 2e4, "chain": 0} {
		if files[0].Crossovers[topo] != bw {
			t.Errorf("crossover %s = %v, want %v", topo, files[0].Crossovers[topo], bw)
		}
	}

	out, err := capture(t, func() error {
		return run([]string{"bench", "-topology", "-validate", "-out", dirs[0]})
	})
	if err != nil {
		t.Fatalf("bench -topology -validate on freshly emitted artifact: %v", err)
	}
	if !strings.Contains(out, "BENCH_topology.json: schema ok") {
		t.Errorf("topology validate output missing confirmation:\n%s", truncate(out, 800))
	}
	if _, err := capture(t, func() error {
		return run([]string{"bench", "-topology", "-validate", "-out", t.TempDir()})
	}); err == nil {
		t.Error("bench -topology -validate on an empty directory should fail")
	}
}

func TestCLIErrors(t *testing.T) {
	cases := [][]string{
		{"nope"},
		{"bench", "-chaos", "-topology"},
		{"bench", "-service", "-topology"},
		{"bench", "-capacity", "-chaos"},
		{"bench", "-iterative", "-capacity"},
		{"iterate", "-mode", "bogus"},
		{"iterate", "-n", "0"},
		{"iterate", "-tie", "2"},
		{"iterate", "-speeds", "x"},
		{"iterate", "-drift-worker", "9"},
		{"iterate", "-drift-worker", "1", "-drift-factor", "0"},
		{"iterate", "-mode", "static", "-n", "8", "-tie", "0.9999", "-rounds", "2", "-rate", "4e5"},
		{"recommend", "-alpha", "0.5"},
		{"recommend", "-speeds", "x"},
		{"recommend", "-speeds", ""},
		{"recommend", "-theta", "0"},
		{"recommend", "-n", "0"},
		{"fig4", "-dist", "bogus"},
		{"nonlinear", "-alphas", "x"},
		{"nonlinear", "-ps", "x"},
		{"analyze", "-kind", "bogus"},
		{"rho", "-p", "7"},
		{"faults", "-scenario", "bogus"},
		{"faults", "-dist", "bogus"},
		{"trace", "-executor", "bogus"},
		{"trace", "-scenario", "bogus"},
		{"trace", "-executor", "dlt", "-scenario", "crash"},
		{"trace", "-dist", "bogus"},
		{"trace", "-p", "1"},
	}
	for _, args := range cases {
		if _, err := capture(t, func() error { return run(args) }); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

func TestCLIFlagHelpDoesNotError(t *testing.T) {
	// flag.ContinueOnError returns flag.ErrHelp for -h; the command should
	// surface it as an error without panicking.
	_, err := capture(t, func() error { return run([]string{"fig4", "-h"}) })
	if err == nil {
		t.Log("fig4 -h returned nil (accepted)") // flag prints usage either way
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

func TestCLISaveAndCompare(t *testing.T) {
	dir := t.TempDir()
	a := dir + "/a.json"
	b := dir + "/b.json"
	if _, err := capture(t, func() error {
		return run([]string{"fig4", "-trials", "2", "-pmax", "10", "-out", a})
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := capture(t, func() error {
		return run([]string{"fig4", "-trials", "2", "-pmax", "10", "-out", b})
	}); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error { return run([]string{"compare", a, b}) })
	if err != nil {
		t.Fatalf("identical records should compare clean: %v\n%s", err, out)
	}
	if !strings.Contains(out, "agree") {
		t.Errorf("missing agreement message:\n%s", out)
	}
	// A different run must be detected.
	c := dir + "/c.json"
	if _, err := capture(t, func() error {
		return run([]string{"fig4", "-trials", "3", "-pmax", "10", "-out", c})
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := capture(t, func() error { return run([]string{"compare", "-tol", "0.0001", a, c}) }); err == nil {
		t.Error("differing records should fail the comparison")
	}
	// Usage errors.
	if _, err := capture(t, func() error { return run([]string{"compare", a}) }); err == nil {
		t.Error("missing operand should fail")
	}
	if _, err := capture(t, func() error { return run([]string{"compare", a, dir + "/absent.json"}) }); err == nil {
		t.Error("missing file should fail")
	}
}

// Golden-style determinism: the same seed must reproduce byte-identical
// fault records for every scenario, and a different seed must not.
func TestCLIFaultsRecordsDeterministic(t *testing.T) {
	dir := t.TempDir()
	for _, scenario := range []string{"crash", "straggler", "flaky-link"} {
		a := dir + "/" + scenario + "-a.json"
		b := dir + "/" + scenario + "-b.json"
		for _, path := range []string{a, b} {
			if out, err := capture(t, func() error {
				return run([]string{"faults", "-scenario", scenario, "-p", "5", "-tasks", "20", "-seed", "7", "-out", path})
			}); err != nil {
				t.Fatalf("%s: %v\n%s", scenario, err, out)
			}
		}
		ra, err := os.ReadFile(a)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := os.ReadFile(b)
		if err != nil {
			t.Fatal(err)
		}
		if string(ra) != string(rb) {
			t.Errorf("%s: same seed produced different records", scenario)
		}
		if out, err := capture(t, func() error { return run([]string{"compare", a, b}) }); err != nil {
			t.Errorf("%s: self-compare failed: %v\n%s", scenario, err, out)
		}
	}
	// A different seed shifts the crash pattern.
	c := dir + "/crash-c.json"
	if _, err := capture(t, func() error {
		return run([]string{"faults", "-scenario", "crash", "-p", "5", "-tasks", "20", "-seed", "8", "-out", c})
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := capture(t, func() error {
		return run([]string{"compare", "-tol", "0.0001", dir + "/crash-a.json", c})
	}); err == nil {
		t.Error("different seeds should produce differing crash records")
	}
}

// Golden determinism for `nlfl trace`: the same seed must reproduce
// byte-identical stdout (Gantt + metrics) and byte-identical Chrome
// trace_event JSON; a different seed must shift the JSON.
func TestCLITraceGolden(t *testing.T) {
	dir := t.TempDir()
	for _, executor := range []string{"resilient", "single-round", "demand", "dlt", "sort"} {
		scenario := "none"
		if executor == "resilient" || executor == "single-round" {
			scenario = "crash"
		}
		var outs [2]string
		var jsons [2][]byte
		for i := range outs {
			path := dir + "/" + executor + string(rune('a'+i)) + ".json"
			out, err := capture(t, func() error {
				return run([]string{"trace", "-executor", executor, "-scenario", scenario,
					"-p", "4", "-tasks", "16", "-seed", "7", "-out", path})
			})
			if err != nil {
				t.Fatalf("%s: %v\n%s", executor, err, out)
			}
			// The two runs write to different paths; drop the trailing
			// "wrote <path>" line before comparing the rendering.
			outs[i] = strings.Split(out, "wrote ")[0]
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			jsons[i] = b
		}
		if outs[0] != outs[1] {
			t.Errorf("%s: same seed produced different stdout", executor)
		}
		if string(jsons[0]) != string(jsons[1]) {
			t.Errorf("%s: same seed produced different Chrome JSON", executor)
		}
		if !json.Valid(jsons[0]) {
			t.Errorf("%s: Chrome trace is not valid JSON", executor)
		}
		for _, want := range []string{`"displayTimeUnit"`, `"traceEvents"`, `"ph": "X"`, `"thread_name"`} {
			if !strings.Contains(string(jsons[0]), want) {
				t.Errorf("%s: Chrome trace missing %q", executor, want)
			}
		}
	}
	// A different seed shifts the platform and therefore the span layout.
	other := dir + "/resilient-seed8.json"
	if _, err := capture(t, func() error {
		return run([]string{"trace", "-executor", "resilient", "-scenario", "crash",
			"-p", "4", "-tasks", "16", "-seed", "8", "-out", other})
	}); err != nil {
		t.Fatal(err)
	}
	ra, err := os.ReadFile(dir + "/resilienta.json")
	if err != nil {
		t.Fatal(err)
	}
	rb, err := os.ReadFile(other)
	if err != nil {
		t.Fatal(err)
	}
	if string(ra) == string(rb) {
		t.Error("different seeds produced identical Chrome JSON")
	}
}

// Golden determinism for `nlfl iterate`: the residual trajectory is
// exact master-side float64 arithmetic, so the deterministic section of
// the output (everything above "control and timing") must be
// byte-identical across reruns AND across planning modes — only the
// measured makespans below it may differ.
func TestCLIIterateGolden(t *testing.T) {
	deterministic := func(out string) string {
		i := strings.Index(out, "control and timing")
		if i < 0 {
			t.Fatalf("output missing the control and timing section:\n%s", truncate(out, 800))
		}
		return out[:i]
	}
	residuals := func(out string) string {
		s := deterministic(out)
		i := strings.Index(s, "residuals (")
		if i < 0 {
			t.Fatalf("output missing the residuals section:\n%s", truncate(out, 800))
		}
		return s[i:]
	}
	args := func(mode string) []string {
		return []string{"iterate", "-n", "48", "-tie", "0.6", "-rate", "4e5",
			"-speeds", "1,2,3", "-rounds", "12", "-mode", mode,
			"-drift-worker", "2", "-drift-factor", "0.4", "-drift-round", "1"}
	}
	var adaptive [2]string
	for i := range adaptive {
		out, err := capture(t, func() error { return run(args("adaptive")) })
		if err != nil {
			t.Fatalf("iterate adaptive: %v\n%s", err, out)
		}
		adaptive[i] = out
	}
	if deterministic(adaptive[0]) != deterministic(adaptive[1]) {
		t.Errorf("rerun changed the deterministic section:\n--- a ---\n%s--- b ---\n%s",
			deterministic(adaptive[0]), deterministic(adaptive[1]))
	}
	for _, want := range []string{"drift: worker 2 slows to 0.40x from round 1",
		"converged in 7 rounds to dominant index 16", "replans", "total makespan"} {
		if !strings.Contains(adaptive[0], want) {
			t.Errorf("iterate output missing %q:\n%s", want, truncate(adaptive[0], 1200))
		}
	}
	// The same trajectory under every planning mode: static and oracle
	// must print residual-for-residual identical sections.
	for _, mode := range []string{"static", "oracle"} {
		out, err := capture(t, func() error { return run(args(mode)) })
		if err != nil {
			t.Fatalf("iterate %s: %v\n%s", mode, err, out)
		}
		if residuals(out) != residuals(adaptive[0]) {
			t.Errorf("%s residuals differ from adaptive:\n--- %s ---\n%s--- adaptive ---\n%s",
				mode, mode, residuals(out), residuals(adaptive[0]))
		}
	}
}

// TestCLIBenchIterative drives the iterative-only mode: the sweep must
// pass its own acceptance gate, emit a BENCH_iterative.json that
// round-trips through -iterative -validate, and keep the residual
// trajectory deterministic across reruns (makespans are free to differ —
// see EXPERIMENTS.md).
func TestCLIBenchIterative(t *testing.T) {
	dirs := [2]string{t.TempDir(), t.TempDir()}
	var files [2]results.IterativeBenchFile
	for i, dir := range dirs {
		out, err := capture(t, func() error {
			return run([]string{"bench", "-iterative", "-quick", "-seed", "42", "-out", dir})
		})
		if err != nil {
			t.Fatalf("bench -iterative: %v\n%s", err, out)
		}
		for _, want := range []string{"iterative sweep", "static", "adaptive", "oracle",
			"adaptive/oracle", "crash", "straggler", "link-slow", "wrote"} {
			if !strings.Contains(out, want) {
				t.Errorf("bench -iterative output missing %q:\n%s", want, truncate(out, 1200))
			}
		}
		files[i], err = results.LoadBenchIterative(dir + "/BENCH_iterative.json")
		if err != nil {
			t.Fatalf("emitted iterative artifact unreadable: %v", err)
		}
	}
	if len(files[0].Policies) != len(files[1].Policies) {
		t.Fatalf("policy counts differ across reruns: %d vs %d", len(files[0].Policies), len(files[1].Policies))
	}
	for i := range files[0].Policies {
		a, b := files[0].Policies[i], files[1].Policies[i]
		if a.Policy != b.Policy || a.Rounds != b.Rounds || a.Dominant != b.Dominant {
			t.Errorf("policy %d identity not deterministic: %+v vs %+v", i, a, b)
		}
		for r := range a.Residuals {
			if a.Residuals[r] != b.Residuals[r] {
				t.Errorf("policy %s round %d residual differs across reruns: %v vs %v",
					a.Policy, r, a.Residuals[r], b.Residuals[r])
			}
		}
	}

	out, err := capture(t, func() error {
		return run([]string{"bench", "-iterative", "-validate", "-out", dirs[0]})
	})
	if err != nil {
		t.Fatalf("bench -iterative -validate on freshly emitted artifact: %v", err)
	}
	if !strings.Contains(out, "BENCH_iterative.json: schema ok") {
		t.Errorf("iterative validate output missing confirmation:\n%s", truncate(out, 800))
	}
	if _, err := capture(t, func() error {
		return run([]string{"bench", "-iterative", "-validate", "-out", t.TempDir()})
	}); err == nil {
		t.Error("bench -iterative -validate on an empty directory should fail")
	}
}

func TestCLIAll(t *testing.T) {
	dir := t.TempDir()
	out, err := capture(t, func() error {
		return run([]string{"all", "-outdir", dir, "-trials", "3"})
	})
	if err != nil {
		t.Fatalf("all: %v\n%s", err, out)
	}
	for _, want := range []string{
		"e1-nonlinear.json", "fig4-uniform.json", "e12-partition-quality.json",
		"ext-affinity.json", "ext-bottleneck.json", "ext-faults.json",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("all output missing %q", want)
		}
		if _, err := os.Stat(dir + "/" + want); err != nil {
			t.Errorf("record %s not written: %v", want, err)
		}
	}
	// The saved records must load and self-compare clean.
	if _, err := capture(t, func() error {
		return run([]string{"compare", dir + "/e6-rho.json", dir + "/e6-rho.json"})
	}); err != nil {
		t.Errorf("self-compare failed: %v", err)
	}
}

// TestCLIAllFailureWritesNothing: `all` computes everything before it
// writes anything, so a run that fails leaves no record for `nlfl compare`
// to mistake for a finished reproduction.
func TestCLIAllFailureWritesNothing(t *testing.T) {
	dir := t.TempDir()
	if _, err := capture(t, func() error {
		return run([]string{"all", "-outdir", dir, "-trials", "0"})
	}); err == nil {
		t.Fatal("all -trials 0 should fail")
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("failing run left %s behind", e.Name())
	}
}

// TestCLIAllReproducesResults is the tier-1 golden: `all` at the paper
// settings rewrites every committed results/*.json byte for byte, on one
// core and on several.
func TestCLIAllReproducesResults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the paper's whole evaluation twice")
	}
	golden, err := os.ReadDir("../../results")
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 4} {
		dir := t.TempDir()
		old := runtime.GOMAXPROCS(procs)
		out, err := capture(t, func() error { return run([]string{"all", "-outdir", dir}) })
		runtime.GOMAXPROCS(old)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: all: %v\n%s", procs, err, out)
		}
		wrote, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(wrote) != len(golden) {
			t.Errorf("GOMAXPROCS=%d: all wrote %d records, results/ holds %d", procs, len(wrote), len(golden))
		}
		for _, e := range golden {
			want, err := os.ReadFile(filepath.Join("../../results", e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Errorf("GOMAXPROCS=%d: %v", procs, err)
			} else if !bytes.Equal(got, want) {
				t.Errorf("GOMAXPROCS=%d: %s differs from the committed results/%s", procs, e.Name(), e.Name())
			}
		}
	}
}
