package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
)

// aaStat is one end-to-end metric on one workload over the runs of a set.
type aaStat struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// Range is (max − min) / median, the spread the set is gated on; IQR is
	// (q3 − q1) / median.
	Range  float64   `json:"range"`
	IQR    float64   `json:"iqr"`
	Values []float64 `json:"values"`
}

// gatedOn reports whether -aa holds d's range to its bound on the workload.
// The timings carry no bound; setup_s — a timing the benchmark contract
// requires among the bounded metrics — is bounded on the median of a set
// against the parent's, not on its spread; another metric is gated where
// ISSUE 13 defines it.
func gatedOn(d metricDef, workload string) bool {
	return d.bound > 0 && d.name != "setup_s" && (len(d.gated) == 0 || slices.Contains(d.gated, workload))
}

// runAA runs every workload (or only the one named) n times on this build,
// each run in a fresh process and with its own seed, and prints per metric
// and workload the median, the quartiles, (max − min) / median and
// (q3 − q1) / median against the metric's bound — for the end-to-end
// metrics and, unbounded, for the timings. It fails when a range exceeds
// its bound where it is gated (see gatedOn). The set is also written to
// benchmark/out/aa.json, in the form BASELINE.json keeps.
func runAA(n int, only string, seed int64, seconds float64, out io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := struct {
		Env        string                       `json:"env"`
		RunSeconds float64                      `json:"run_seconds"`
		Runs       int                          `json:"runs"`
		FirstSeed  int64                        `json:"first_seed"`
		Workloads  map[string]map[string]aaStat `json:"workloads"`
	}{envLine(), seconds, n, seed, map[string]map[string]aaStat{}}

	var over []string
	for _, w := range workloadDefs {
		if only != "" && w.name != only {
			continue
		}
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(seed+int64(i), 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
			cmd.Stderr = os.Stderr
			// A run that failed an op or a check exits non-zero.
			if stdout, err := cmd.Output(); err != nil {
				return fmt.Errorf("%s run %d: %w\n%s", w.name, i, err, stdout)
			}
			// Every figure of the run, the timings too, which the result
			// line of an untraced run does not hold.
			var all map[string]float64
			if b, err := os.ReadFile(filepath.Join(outDir, "run-"+w.name+".json")); err != nil {
				return err
			} else if err := json.Unmarshal(b, &all); err != nil {
				return fmt.Errorf("%s run %d: %w", w.name, i, err)
			}
			for _, d := range slices.Concat(endToEnd, timings) {
				values[d.name] = append(values[d.name], all[d.name])
			}
			fmt.Fprintf(out, "%s run %d/%d done\n", w.name, i+1, n)
		}
		set.Workloads[w.name] = map[string]aaStat{}
		for _, d := range slices.Concat(endToEnd, timings) {
			xs := values[d.name]
			med := median(xs)
			q1, q3 := quartiles(xs)
			st := aaStat{med, q1, q3, (slices.Max(xs) - slices.Min(xs)) / med, (q3 - q1) / med, xs}
			set.Workloads[w.name][d.name] = st
			if gatedOn(d, w.name) && st.Range > d.bound {
				over = append(over, d.name+" on "+w.name)
			}
		}
	}

	fmt.Fprintf(out, "\n%-16s %-16s %12s %12s %12s %8s %8s %6s\n",
		"workload", "metric", "median", "q1", "q3", "rng/med", "iqr/med", "bound")
	for _, w := range workloadDefs {
		for _, d := range slices.Concat(endToEnd, timings) {
			st, ok := set.Workloads[w.name][d.name]
			if !ok {
				continue
			}
			bound := "     -"
			switch {
			case gatedOn(d, w.name):
				bound = fmt.Sprintf(" %4.0f%%", 100*d.bound)
			case d.bound > 0:
				bound = fmt.Sprintf("(%3.0f%%)", 100*d.bound) // bounded, range not gated here
			}
			if slices.Contains(over, d.name+" on "+w.name) {
				bound += "  OVER"
			}
			fmt.Fprintf(out, "%-16s %-16s %12.6g %12.6g %12.6g %7.2f%% %7.2f%% %s\n",
				w.name, d.name, st.Median, st.Q1, st.Q3, 100*st.Range, 100*st.IQR, bound)
		}
	}
	b, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "aa.json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	if len(over) > 0 {
		return fmt.Errorf("(max − min) / median over the bound: %v", over)
	}
	return nil
}
