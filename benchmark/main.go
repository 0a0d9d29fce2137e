// Command nlflbench is the repository benchmark: six workloads from
// `nlfl all` to `nlfl serve`, each timed end to end with tracing off and,
// in a separate traced pass, layer by layer from outside the program —
// by timing the calls into each layer's public functions and reading its
// public reports. See README.md for the tables and the rules.
//
// Run it from the root of the repository through benchmark/run.sh:
//
//	bash benchmark/run.sh                      every workload, both passes
//	bash benchmark/run.sh -workload run-grid   one end-to-end run
//	bash benchmark/run.sh -workload run-grid -trace 1
//	bash benchmark/run.sh -aa 10               ten runs per workload, spreads against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	goruntime "runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// setupReps is how often a run sets up: setup_s is the median, so one
// slow fork or page-cache miss does not move it.
const setupReps = 5

// maxLagP90 is the validity rule of an open loop: a run whose generator
// was this late on a tenth of its sends did not offer the load it claims.
const maxLagP90 = 5e-3

// runConfig is what a workload's set-up sees.
type runConfig struct {
	seed       int64
	nproc      int
	nlflBin    string
	resultsDir string
}

// instance is one set-up workload.
type instance interface {
	// measure drives the workload for d and checks every op. A non-nil rec
	// makes it a traced pass.
	measure(d time.Duration, seed int64, rec *recorder) (*measurement, error)
	// probes measures, beside a traced phase, the layers under the
	// workload on their own.
	probes(m *measurement) error
	close() error
}

var setups = map[string]func(*runConfig) (instance, error){
	"paper-sweep":     setupPaper,
	"run-grid":        func(rc *runConfig) (instance, error) { return setupRun(rc, false) },
	"run-lease":       func(rc *runConfig) (instance, error) { return setupRun(rc, true) },
	"fleet-saturated": func(rc *runConfig) (instance, error) { return setupFleet(rc, false) },
	"fleet-modeled":   func(rc *runConfig) (instance, error) { return setupFleet(rc, true) },
	"serve-http":      setupServe,
}

// metricValue and result are the last line of a run's standard output.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run (default: every workload, both passes)")
	seed := flag.Int64("seed", 42, "seed of every generated input")
	seconds := flag.Float64("seconds", runSeconds, "length of the measured phase")
	traced := flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	aa := flag.Int("aa", 0, "run every workload (or -workload) N times on this build and print the spreads against the bounds")
	flag.Parse()

	err := func() error {
		switch {
		case *aa > 0:
			return runAA(*aa, *workload, *seed, *seconds, os.Stdout)
		case *workload == "":
			return runAll(*seed, *seconds, os.Stdout)
		}
		res, err := runOne(runOptions{*workload, *seed, *seconds, *traced != 0, setupReps}, os.Stdout)
		if err != nil {
			return err
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", line)
		if !res.Correct {
			return fmt.Errorf("%s: %d of %d ops failed or a check did not hold", *workload, res.Failed, res.Attempted)
		}
		return nil
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "nlflbench:", err)
		os.Exit(1)
	}
}

// runAll runs every workload once with tracing off and once traced.
func runAll(seed int64, seconds float64, out io.Writer) error {
	var bad []string
	for _, w := range workloadDefs {
		for _, traced := range []bool{false, true} {
			res, err := runOne(runOptions{w.name, seed, seconds, traced, setupReps}, out)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			if !res.Correct {
				bad = append(bad, w.name)
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("failed ops or checks on: %s", strings.Join(bad, ", "))
	}
	return nil
}

// outDir is where everything a run writes goes: binaries, the Go build
// cache (run.sh), scratch directories and traces. It is git-ignored.
var outDir = filepath.Join("benchmark", "out")

// buildNlfl builds the program under test into outDir and returns the
// binary's path and the build's duration. The build cache makes every
// build after the first a fraction of a second.
func buildNlfl() (string, float64, error) {
	bin, err := filepath.Abs(filepath.Join(outDir, "nlfl"))
	if err != nil {
		return "", 0, err
	}
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-buildvcs=false", "-o", bin, "./cmd/nlfl")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/nlfl: %w", err)
	}
	return bin, time.Since(t0).Seconds(), nil
}

// runOptions say what one run does.
type runOptions struct {
	workload  string
	seed      int64
	seconds   float64
	traced    bool
	setupReps int
}

// runOne is one run of one workload: build, set up setupReps times,
// measure, check, report.
func runOne(o runOptions, out io.Writer) (*result, error) {
	name, seed, seconds, traced := o.workload, o.seed, o.seconds, o.traced
	setup, ok := setups[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return nil, fmt.Errorf("non-positive -seconds %v", seconds)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	bin, buildSeconds, err := buildNlfl()
	if err != nil {
		return nil, err
	}
	rc := &runConfig{seed: seed, nproc: goruntime.NumCPU(), nlflBin: bin, resultsDir: "results"}
	d := time.Duration(seconds * float64(time.Second))

	var m *measurement
	var setupTimes []float64
	var rec *recorder
	var invalid []string
	// An open-loop run whose generator lagged is invalid and is run again
	// once, from a fresh set-up. A second invalid run is reported as it is,
	// with the note: its outputs are still correct, and a host too busy to
	// keep a schedule shows in every other run's numbers as well.
	for attempt := 0; attempt < 2; attempt++ {
		var inst instance
		setupTimes = setupTimes[:0]
		for rep := 0; rep < o.setupReps; rep++ {
			if inst != nil {
				if err := inst.close(); err != nil {
					return nil, err
				}
			}
			t0 := time.Now()
			if inst, err = setup(rc); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			setupTimes = append(setupTimes, time.Since(t0).Seconds())
		}
		rec = nil
		if traced {
			rec = newRecorder()
		}
		m, err = inst.measure(d, seed, rec)
		if err == nil && traced {
			err = inst.probes(m)
		}
		if cerr := inst.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		if len(m.lag) == 0 || percentile(m.lag, 0.9) <= maxLagP90 {
			break
		}
		invalid = append(invalid, fmt.Sprintf("attempt %d invalid: the load generator's lag p90 was %.2f ms (limit %.0f ms)",
			attempt+1, 1e3*percentile(m.lag, 0.9), 1e3*maxLagP90))
	}
	m.notes = append(m.notes, invalid...)

	res := &result{Attempted: len(m.samples), Metrics: map[string]metricValue{}}
	for _, s := range m.samples {
		if !s.ok {
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0 && len(m.failures) == 0 && res.Attempted > 0
	all := summarize(m)

	env := envLine()
	values := map[string]float64{
		"setup_s":        median(setupTimes),
		"peak_rss_mb":    m.peakRSSMB,
		"ops_per_s":      all.opsPerSec,
		"latency_p50_ms": all.p50,
		"latency_p90_ms": all.p90,
		"cpu_ms_per_op":  all.cpuMsPerOp,
	}
	// The result line carries the pass's own list; the report of an
	// untraced run also shows the timings, which that list does not hold.
	defs, shown := endToEnd, slices.Concat(endToEnd, timings)
	if traced {
		defs, shown = perLayer, perLayer
		for k, v := range m.layer {
			values[k] = v
		}
		on := latenciesMs(m.samples, func(s sample) bool { return s.traced })
		off := latenciesMs(m.samples, func(s sample) bool { return !s.traced })
		if len(on) > 0 && len(off) > 0 {
			values["trace_overhead_frac"] = windowPercentile(on, 0.5)/windowPercentile(off, 0.5) - 1
		}
		values["trace.selfsum_err_frac"] = m.selfSumErr
		if len(m.lag) > 0 {
			values["loadgen.lag_p99_ms"] = 1e3 * percentile(m.lag, 0.99)
			m.notes = append(m.notes, fmt.Sprintf("load generator lag (send − due): p50 %.3f ms, p90 %.3f ms, p99 %.3f ms over %d sends",
				1e3*percentile(m.lag, 0.5), 1e3*percentile(m.lag, 0.9), 1e3*percentile(m.lag, 0.99), len(m.lag)))
		}
		values["proc.peak_rss_mb"] = peakRSSMB("self")
		values["proc.build_s"] = buildSeconds
		values["proc.setup_first_s"] = setupTimes[0]
		values["latency_p99_ms"] = all.p99
		values["failed_frac"] = float64(res.Failed) / float64(max(res.Attempted, 1))
		if err := writeTrace(filepath.Join(outDir, "trace-"+name+".json"), name, seed, env, rec, m); err != nil {
			return nil, err
		}
	}

	// Every figure of the run, by name, for -aa and for whoever wants them
	// as data.
	if err := writeJSON(filepath.Join(outDir, "run-"+name+".json"), values); err != nil {
		return nil, err
	}

	pass := "end to end, tracing off"
	if traced {
		pass = "traced pass"
	}
	fmt.Fprintf(out, "== %s (%s) seed=%d seconds=%g: %d ops, %d failed, p50 over %d samples\n",
		name, pass, seed, seconds, res.Attempted, res.Failed, all.n)
	fmt.Fprintf(out, "   env: %s\n", env)
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	for _, d := range shown {
		note := fmt.Sprintf("%s is better", d.better)
		if d.bound > 0 {
			note += fmt.Sprintf(", may worsen by %.0f%%", 100*d.bound)
		}
		fmt.Fprintf(out, "   %-40s %14.6g %-7s (%s)\n", d.name, values[d.name], d.unit, note)
	}
	if traced && len(m.layerWall) > 0 {
		fmt.Fprintf(out, "   wall time of the traced ops by layer:%s\n", shares(m.layerWall))
	}
	for _, n := range m.notes {
		fmt.Fprintf(out, "   note: %s\n", n)
	}
	for _, f := range m.failures {
		fmt.Fprintf(out, "   FAILED: %s\n", f)
	}
	return res, nil
}

// shares renders a layer → seconds map as percentages, largest first.
func shares(wall map[string]float64) string {
	total := 0.0
	for _, v := range wall {
		total += v
	}
	var b strings.Builder
	for _, layer := range sortedByValue(wall) {
		fmt.Fprintf(&b, " %s %.1f%%", layer, 100*wall[layer]/total)
	}
	return b.String()
}

// sortedByValue returns the keys of m, largest value first.
func sortedByValue(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if m[keys[i]] != m[keys[j]] {
			return m[keys[i]] > m[keys[j]]
		}
		return keys[i] < keys[j]
	})
	return keys
}

// envLine describes where the numbers were taken.
func envLine() string {
	model, avx2 := cpuInfo()
	commit := "unknown"
	if b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s %s/%s cpu=%q avx2=%v commit=%s",
		goruntime.NumCPU(), goruntime.GOMAXPROCS(0), goruntime.Version(), goruntime.GOOS, goruntime.GOARCH, model, avx2, commit)
}

// writeTrace writes the traced pass's spans.
func writeTrace(path, workload string, seed int64, env string, rec *recorder, m *measurement) error {
	return writeJSON(path, struct {
		Workload  string             `json:"workload"`
		Seed      int64              `json:"seed"`
		Env       string             `json:"env"`
		Note      string             `json:"note"`
		Ops       int                `json:"traced_ops"`
		LayerWall map[string]float64 `json:"layer_wall_seconds"`
		Spans     []span             `json:"spans"`
	}{
		Workload: workload, Seed: seed, Env: env, Ops: rec.ops, LayerWall: m.layerWall, Spans: rec.spans,
		Note: "times are seconds since the measured phase began; derived spans are placed from report fields; " +
			"per-chunk worker spans are kept for the first traced ops only",
	})
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
