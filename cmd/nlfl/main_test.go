package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
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

// TestCLISubcommands checks the phrases each report must carry. Its rows
// run the arguments of TestCLIGoldens rows, so a golden that is
// regenerated cannot drop the heading or figure a row names.
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
		{"trace demand", []string{"trace", "-executor", "demand", "-p", "4", "-tasks", "16"},
			[]string{"demand executor", "invariants: ok"}},
		{"trace dlt", []string{"trace", "-executor", "dlt", "-p", "4", "-tasks", "16"},
			[]string{"dlt executor", "invariants: ok"}},
		{"trace sort", []string{"trace", "-executor", "sort", "-p", "4", "-tasks", "16"},
			[]string{"sort executor", "invariants: ok"}},
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

// goldenExempt names the commands TestCLIGoldens holds no row for, each
// with the test that pins it instead.
var goldenExempt = map[string]string{
	"bench":   "times the host; TestCLIBench* check its sweeps and artifacts",
	"serve":   "runs until stopped; serve_test.go drives its HTTP API",
	"compare": "reads saved records; TestCLISaveAndCompare checks it",
	"all":     "writes records, not a report; TestCLIAllReproducesResults pins them",
}

// TestCLIGoldens pins what the simulated stack prints, byte for byte:
// each row runs one command and compares its stdout with its golden, and
// every testdata/*.golden is a row. The sort rows' scaling table and
// Theorem B.4 line come from routed bucket counts and must read as they
// did when every trial was fully sorted. The single-round, resilient and
// faults rows pin the DES fault executors under each scenario kind, on
// the default platforms and on smaller ones. The affinity row pins every
// policy and the bounded-cache sweep. The iterate row pins a closed-loop
// job on the virtual clock: residuals, makespans and control decisions.
// The rows from nonlinear to help pin every other deterministic command,
// and with them the closed forms, partitioners, kernels and planner
// behind those tables. Every command of commands() has a row, bar those
// in goldenExempt.
func TestCLIGoldens(t *testing.T) {
	rows := []struct {
		golden string
		args   []string
	}{
		{"sort-seed7-trials30", []string{"sort", "-seed", "7", "-trials", "30"}},
		{"sort-trials2", []string{"sort", "-trials", "2"}},
		{"gantt-p4-w40", []string{"gantt", "-p", "4", "-w", "40"}},
		{"trace-dlt-p4-tasks16", []string{"trace", "-executor", "dlt", "-p", "4", "-tasks", "16"}},
		{"trace-demand-p4-tasks16", []string{"trace", "-executor", "demand", "-p", "4", "-tasks", "16"}},
		{"trace-sort-p4-tasks16", []string{"trace", "-executor", "sort", "-p", "4", "-tasks", "16"}},
		{"trace-single-round-crash-p4-tasks16-seed7", []string{"trace", "-executor", "single-round",
			"-scenario", "crash", "-p", "4", "-tasks", "16", "-seed", "7"}},
		{"trace-single-round-straggler-p4-tasks16-seed7", []string{"trace", "-executor", "single-round",
			"-scenario", "straggler", "-p", "4", "-tasks", "16", "-seed", "7"}},
		{"trace-single-round-flaky-link-p4-tasks16-seed7", []string{"trace", "-executor", "single-round",
			"-scenario", "flaky-link", "-p", "4", "-tasks", "16", "-seed", "7"}},
		{"trace-resilient-crash-p4-tasks16-seed7", []string{"trace", "-executor", "resilient",
			"-scenario", "crash", "-p", "4", "-tasks", "16", "-seed", "7"}},
		{"trace-resilient-straggler-p4-tasks16-seed7", []string{"trace", "-executor", "resilient",
			"-scenario", "straggler", "-p", "4", "-tasks", "16", "-seed", "7"}},
		{"trace-resilient-flaky-link-p4-tasks16-seed7", []string{"trace", "-executor", "resilient",
			"-scenario", "flaky-link", "-p", "4", "-tasks", "16", "-seed", "7"}},
		{"faults-crash", []string{"faults", "-scenario", "crash"}},
		{"faults-straggler", []string{"faults", "-scenario", "straggler"}},
		{"faults-flaky-link", []string{"faults", "-scenario", "flaky-link"}},
		{"faults-crash-p6-tasks36-seed3", []string{"faults", "-scenario", "crash", "-p", "6", "-tasks", "36", "-seed", "3"}},
		{"faults-straggler-p5-tasks30-seed2", []string{"faults", "-scenario", "straggler", "-p", "5", "-tasks", "30", "-seed", "2"}},
		{"faults-flaky-link-p4-tasks24-seed4", []string{"faults", "-scenario", "flaky-link", "-p", "4", "-tasks", "24", "-seed", "4"}},
		{"trace-resilient-crash-p4-tasks16-seed3", []string{"trace", "-executor", "resilient",
			"-scenario", "crash", "-p", "4", "-tasks", "16", "-seed", "3"}},
		{"trace-single-round-crash-p4-tasks16-seed3", []string{"trace", "-executor", "single-round",
			"-scenario", "crash", "-p", "4", "-tasks", "16", "-seed", "3"}},
		{"trace-resilient-flaky-link-p4-tasks24-seed4-w60", []string{"trace", "-executor", "resilient",
			"-scenario", "flaky-link", "-p", "4", "-tasks", "24", "-seed", "4", "-w", "60"}},
		{"returns-trials20", []string{"returns", "-trials", "20"}},
		{"adaptivity-p4-blocks64", []string{"adaptivity", "-p", "4", "-blocks", "64"}},
		{"affinity-p4-g10", []string{"affinity", "-p", "4", "-g", "10"}},
		{"iterate-n48-tie0.6-drift2", []string{"iterate", "-n", "48", "-tie", "0.6", "-rate", "4e5",
			"-speeds", "1,2,3", "-rounds", "12", "-mode", "adaptive",
			"-drift-worker", "2", "-drift-factor", "0.4", "-drift-round", "1"}},
		{"nonlinear-ps2-10", []string{"nonlinear", "-ps", "2,10"}},
		{"analyze-power-alpha2-p100", []string{"analyze", "-kind", "power", "-alpha", "2", "-p", "100"}},
		{"analyze-sort-n1048576-p32", []string{"analyze", "-kind", "sort", "-n", "1048576", "-p", "32"}},
		{"rho-ks1-16", []string{"rho", "-ks", "1,16"}},
		{"partition-trials3", []string{"partition", "-trials", "3"}},
		{"outer-p6", []string{"outer", "-p", "6"}},
		{"matmul-n32", []string{"matmul", "-n", "32"}},
		{"mapreduce-demo6", []string{"mapreduce", "-demo", "6"}},
		{"fig2-p4-w24-h8", []string{"fig2", "-p", "4", "-w", "24", "-h", "8"}},
		{"fig4-trials3-pmax20", []string{"fig4", "-trials", "3", "-pmax", "20"}},
		{"fig4-csv-trials2-pmax10", []string{"fig4", "-trials", "2", "-pmax", "10", "-csv"}},
		{"bottleneck-p6", []string{"bottleneck", "-p", "6"}},
		{"mrdlt-p4", []string{"mrdlt", "-p", "4"}},
		{"polymul-n64", []string{"polymul", "-n", "64"}},
		{"tree-depth2-fanout2", []string{"tree", "-depth", "2", "-fanout", "2"}},
		{"recommend", []string{"recommend"}},
		{"recommend-bandwidth0-nochart", []string{"recommend", "-bandwidth", "0", "-chart=false"}},
		{"recommend-json", []string{"recommend", "-json"}},
		{"demo", []string{"demo"}},
		{"help", []string{"help"}},
	}
	files, err := filepath.Glob("testdata/*.golden")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(rows) {
		t.Errorf("testdata holds %d goldens, the table %d rows", len(files), len(rows))
	}
	pinned := map[string]bool{}
	for _, r := range rows {
		pinned[r.args[0]] = true
	}
	for _, c := range commands() {
		if !pinned[c.name] && goldenExempt[c.name] == "" {
			t.Errorf("command %q has no golden row and no goldenExempt reason", c.name)
		}
	}
	for _, r := range rows {
		t.Run(r.golden, func(t *testing.T) {
			path := filepath.Join("testdata", r.golden+".golden")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			got, err := capture(t, func() error { return run(r.args) })
			if err != nil {
				t.Fatalf("%v: %v\n%s", r.args, err, got)
			}
			// A written file's path is the run's, not the golden's.
			if i := strings.Index(got, "\nwrote "); i >= 0 {
				got = got[:i+1]
			}
			if got != string(want) {
				t.Errorf("nlfl %s drifted from %s:\n--- got ---\n%s--- want ---\n%s",
					strings.Join(r.args, " "), path, got, want)
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
	for _, want := range []string{"BENCH_kernels.json: schema ok", "BENCH_service.json: schema ok",
		"BENCH_chaos.json: identical to the seed-42 regeneration"} {
		if !strings.Contains(out, want) {
			t.Errorf("validate output missing %q:\n%s", want, truncate(out, 800))
		}
	}
	if _, err := capture(t, func() error {
		return run([]string{"bench", "-validate", "-out", t.TempDir()})
	}); err == nil {
		t.Error("bench -validate on an empty directory should fail")
	}
}

// benchOnly runs `nlfl bench -only name -quick -seed 42` into a fresh
// directory and requires the printed table to mention every want. Then
// -validate must pass on the emitted artifact and on the committed root
// copy — each equals the seed-42 regeneration, so they equal each other
// bar goVersion — and fail on an empty directory.
func benchOnly(t *testing.T, name string, want ...string) {
	t.Helper()
	dir := t.TempDir()
	out, err := capture(t, func() error {
		return run([]string{"bench", "-only", name, "-quick", "-seed", "42", "-out", dir})
	})
	if err != nil {
		t.Fatalf("bench -only %s: %v\n%s", name, err, out)
	}
	for _, w := range append(want, "wrote") {
		if !strings.Contains(out, w) {
			t.Errorf("bench -only %s output missing %q:\n%s", name, w, truncate(out, 1200))
		}
	}
	file := "BENCH_" + name + ".json"
	for _, d := range []string{dir, filepath.Join("..", "..")} {
		out, err = capture(t, func() error {
			return run([]string{"bench", "-only", name, "-validate", "-out", d})
		})
		if err != nil {
			t.Fatalf("bench -only %s -validate -out %s: %v", name, d, err)
		}
		if !strings.Contains(out, file+": identical to the seed-42 regeneration") {
			t.Errorf("%s validate output missing confirmation:\n%s", name, truncate(out, 800))
		}
	}
	if _, err := capture(t, func() error {
		return run([]string{"bench", "-only", name, "-validate", "-out", t.TempDir()})
	}); err == nil {
		t.Errorf("bench -only %s -validate on an empty directory should fail", name)
	}
}

// TestCLIBenchChaos drives the chaos-only mode: the sweep must survive
// every fault class (the crash-at-t=0 edge case included) and rewrite
// the committed BENCH_chaos.json.
func TestCLIBenchChaos(t *testing.T) {
	benchOnly(t, "chaos", "chaos sweep", "crash-t0", "straggler", "flaky-link", "replanned")
}

// TestCLIBenchTopology drives the topology-only mode: the sweep must
// hold the crossover-shift gate (star yes, chain no) and rewrite the
// committed BENCH_topology.json.
func TestCLIBenchTopology(t *testing.T) {
	benchOnly(t, "topology", "topology sweep", "star", "chain", "two-source",
		"crossover star", "crossover chain", "none (het never wins")
}

// TestCLIBenchCreatesOutDir: bench creates a missing -out directory
// before its first sweep instead of failing after the last one, and
// -validate regenerates the artifact at the seed its file records, not
// at the default -seed.
func TestCLIBenchCreatesOutDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "x", "y")
	if out, err := capture(t, func() error {
		return run([]string{"bench", "-only", "chaos", "-seed", "7", "-out", dir})
	}); err != nil {
		t.Fatalf("bench into a missing nested directory: %v\n%s", err, out)
	}
	out, err := capture(t, func() error {
		return run([]string{"bench", "-only", "chaos", "-validate", "-out", dir})
	})
	if err != nil {
		t.Errorf("bench -validate on the nested directory: %v", err)
	}
	if !strings.Contains(out, "BENCH_chaos.json: identical to the seed-7 regeneration") {
		t.Errorf("validate output missing the recorded seed:\n%s", truncate(out, 800))
	}
}

func TestCLIErrors(t *testing.T) {
	cases := [][]string{
		{"nope"},
		{"bench", "-only", "bogus"},
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
		{"affinity", "-n", "0"},
		{"affinity", "-n", "-1"},
		{"affinity", "-n", "inf"},
		{"affinity", "-n", "1e308"},
		{"matmul", "-n", "0"},
		{"matmul", "-n", "-3"},
		{"matmul", "-n", "4"},
		{"matmul", "-n", "7"},
		{"mapreduce", "-demo", "0"},
		{"mapreduce", "-demo", "-2"},
		{"mapreduce", "-n", "0"},
		{"partition", "-trials", "0"},
		{"returns", "-trials", "0"},
		{"sort", "-trials", "0"},
		{"outer", "-n", "0"},
		{"bottleneck", "-n", "0"},
		{"fig4", "-pmax", "5"},
		{"polymul", "-n", "-1"},
	}
	for _, args := range cases {
		out, err := capture(t, func() error { return run(args) })
		if err == nil {
			t.Errorf("run(%v) should fail", args)
		}
		// A rejected input fails before any table shows it as NaN.
		if strings.Contains(out, "NaN") {
			t.Errorf("run(%v) printed NaN before failing:\n%s", args, truncate(out, 800))
		}
		// matmul checks -n before it prints the kernel comparison, and
		// affinity runs every sweep before its header.
		if (args[0] == "matmul" || args[0] == "affinity") && out != "" {
			t.Errorf("run(%v) printed before failing:\n%s", args, truncate(out, 800))
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

// TestCLIBenchIterative drives the iterative-only mode: the sweep must
// pass its own acceptance gate and rewrite the committed
// BENCH_iterative.json.
func TestCLIBenchIterative(t *testing.T) {
	benchOnly(t, "iterative", "iterative sweep", "static", "adaptive", "oracle",
		"adaptive/oracle", "crash", "straggler", "link-slow")
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

// allPeakRSSHelperEnv marks the re-executed test binary of TestAllPeakRSS
// as the helper process.
const allPeakRSSHelperEnv = "NLFL_TEST_ALL_PEAK_RSS_HELPER"

// TestAllPeakRSS guards the resident set of `nlfl all`, which CI never
// measures otherwise: the benchmark's paper-sweep reports it as
// peak_rss_mb. A fresh process (the re-executed test binary) runs the
// paper's whole evaluation and reports its own VmHWM. Not the child's
// rusage Maxrss: os/exec starts the child on the parent's address space,
// and Linux folds that space's high-water mark into the child's maxrss at
// exec, so it would report this test binary's peak. The helper runs at
// GOMAXPROCS=2, the benchmark host's width, because every extra core runs
// another experiment's working set beside the others (19-23 MB at 4, 24-26
// MB at 8). At 2 it peaks at 14.9-15.5 MB. Storing the E3 sweep's 2^20 keys
// (8 MiB) took it to 26-29 MB, and sorting them only to read bucket sizes
// to 49-63 MB. The 20 MB gate leaves 4.5 MB of margin and fails if the
// sweep stores its keys again.
func TestAllPeakRSS(t *testing.T) {
	if os.Getenv(allPeakRSSHelperEnv) == "1" {
		if _, err := capture(t, func() error { return run([]string{"all", "-outdir", t.TempDir()}) }); err != nil {
			t.Fatal(err)
		}
		status, err := os.ReadFile("/proc/self/status")
		if err != nil {
			t.Skipf("no /proc/self/status: %v", err)
		}
		for _, line := range strings.Split(string(status), "\n") {
			if kb, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				fmt.Printf("all-peak-rss-kb %s\n", strings.TrimSuffix(strings.TrimSpace(kb), " kB"))
				return
			}
		}
		t.Skip("no VmHWM in /proc/self/status")
	}
	if testing.Short() {
		t.Skip("re-executes the test binary to run the paper's whole evaluation")
	}
	if raceEnabled {
		t.Skip("the race detector's shadow memory inflates the resident set")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestAllPeakRSS$")
	cmd.Env = append(os.Environ(), allPeakRSSHelperEnv+"=1", "GOMAXPROCS=2")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("helper process: %v\n%s", err, out)
	}
	line := string(out)
	i := strings.Index(line, "all-peak-rss-kb ")
	if i < 0 {
		t.Skipf("helper could not read its VmHWM:\n%s", out)
	}
	var kb int64
	if _, err := fmt.Sscanf(line[i:], "all-peak-rss-kb %d", &kb); err != nil {
		t.Fatalf("helper printed no resident-set line: %v\n%s", err, out)
	}
	t.Logf("nlfl all peaked at %.1f MB resident", float64(kb)/1024)
	if kb > 20<<10 {
		t.Errorf("nlfl all peaked at %.1f MB resident, want ≤ 20 MB: is something holding the E3 sweep's 2^20 keys again?", float64(kb)/1024)
	}
}
