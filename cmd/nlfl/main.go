// Command nlfl reproduces the experiments of "Non-Linear Divisible Loads:
// There is No Free Lunch" (Beaumont, Larchevêque, Marchal — IPDPS 2013 /
// INRIA RR-8170) from the command line.
//
// Usage:
//
//	nlfl <command> [flags]
//
// `nlfl help` lists every command with a one-line description, and
// `nlfl <command> -h` lists its flags.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"nlfl/internal/platform"
	"nlfl/internal/stats"
)

// command wires a name to its runner and a one-line description.
type command struct {
	name string
	desc string
	run  func(args []string) error
}

func commands() []command {
	return []command{
		{"fig4", "reproduce a Figure 4 panel (a: homogeneous, b: uniform, c: lognormal)", runFig4},
		{"nonlinear", "Section 2 unprocessed-work fraction table", runNonLinear},
		{"sort", "Section 3 sample-sort scaling table", runSort},
		{"rho", "Section 4.1.3 ρ sweep over the bimodal platform", runRho},
		{"partition", "Section 4.1.2 PERI-SUM quality sweep", runPartition},
		{"outer", "Section 4.1 strategies on one random platform", runOuter},
		{"matmul", "Section 4.2 layout volumes on a verified product", runMatMul},
		{"mapreduce", "MapReduce distribution comparison and demo job", runMapReduce},
		{"fig2", "draw the Heterogeneous Blocks footprints (Figure 2)", runFig2},
		{"bottleneck", "makespan impact of link bandwidth on the three strategies", runBottleneck},
		{"mrdlt", "divisible MapReduce scheduling (the linear case that works)", runMRDLT},
		{"polymul", "polynomial multiplication: algorithm choice flips the verdict", runPolymul},
		{"adaptivity", "static DLT vs demand-driven under a mid-run slowdown", runAdaptivity},
		{"gantt", "draw linear vs non-linear schedule timelines", runGantt},
		{"tree", "multi-level tree DLT: equivalent-processor reduction", runTree},
		{"returns", "result collection (FIFO vs LIFO) — the §1.2 exclusion restored", runReturns},
		{"affinity", "the conclusion's affinity-aware demand-driven scheduler", runAffinity},
		{"faults", "robustness under crashes, stragglers and flaky links", runFaults},
		{"trace", "run one executor, audit its trace, render Gantt/Chrome JSON", runTrace},
		{"iterate", "closed-loop iterative job with water-filling re-planning", runIterate},
		{"bench", "measure kernels + worker-pool runtime, emit BENCH_*.json", runBench},
		{"recommend", "size a fleet slice for an α-power workload (capacity planner)", runRecommend},
		{"serve", "run the multi-tenant fleet service behind an HTTP API", runServe},
		{"analyze", "divisibility verdict for a workload", runAnalyze},
		{"compare", "diff two saved JSON result records", runCompare},
		{"all", "run every experiment with paper settings and save JSON records", runAll},
		{"demo", "run every experiment with small settings", runDemo},
	}
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "nlfl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 || args[0] == "help" || args[0] == "-h" || args[0] == "--help" {
		usage()
		return nil
	}
	for _, c := range commands() {
		if c.name == args[0] {
			return c.run(args[1:])
		}
	}
	usage()
	return fmt.Errorf("unknown command %q", args[0])
}

func usage() {
	fmt.Println("nlfl — Non-Linear Divisible Loads: There is No Free Lunch (reproduction)")
	fmt.Println("\ncommands:")
	for _, c := range commands() {
		fmt.Printf("  %-10s %s\n", c.name, c.desc)
	}
	fmt.Println("\nrun `nlfl <command> -h` for the command's flags")
}

// newFlagSet builds a flag set that returns errors instead of exiting.
func newFlagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(os.Stdout)
	return fs
}

// demoRuns are the invocations `demo` runs, each under its own header.
var demoRuns = []struct {
	label string
	args  []string
}{
	{"nonlinear", []string{"nonlinear", "-ps", "2,10,100"}},
	{"sort", []string{"sort", "-trials", "5"}},
	{"rho", []string{"rho"}},
	{"partition", []string{"partition", "-trials", "10"}},
	{"outer", []string{"outer", "-p", "8"}},
	{"matmul", []string{"matmul", "-n", "48"}},
	{"mapreduce", []string{"mapreduce", "-demo", "8"}},
	{"fig2", []string{"fig2", "-p", "5", "-w", "40", "-h", "12"}},
	{"affinity", []string{"affinity", "-p", "6", "-g", "20"}},
	{"bottleneck", []string{"bottleneck", "-p", "10"}},
	{"mrdlt", []string{"mrdlt", "-p", "6"}},
	{"fig4 (reduced)", []string{"fig4", "-trials", "10", "-pmax", "50"}},
	{"analyze", []string{"analyze"}},
}

// runDemo smoke-runs every experiment with tiny settings.
func runDemo(args []string) error {
	for i, d := range demoRuns {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("=== %s ===\n", d.label)
		if err := run(d.args); err != nil {
			return err
		}
	}
	return nil
}

// randomPlatform draws p workers from the named speed profile with the
// seeded RNG; k is the bimodal profile's speed factor.
func randomPlatform(p int, dist string, seed int64, k float64) (*platform.Platform, platform.SpeedProfile, error) {
	profile, err := platform.ParseProfile(dist)
	if err != nil {
		return nil, profile, err
	}
	pl, err := platform.Generate(p, profile.Distribution(k), stats.NewRNG(seed))
	return pl, profile, err
}

// parseList parses a comma-separated list such as "1,2.5,3", naming kind
// in its error.
func parseList[T any](s, kind string, parse func(string) (T, error)) ([]T, error) {
	parts := strings.Split(s, ",")
	out := make([]T, 0, len(parts))
	for _, p := range parts {
		v, err := parse(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad %s %q: %w", kind, p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	return parseList(s, "float", func(p string) (float64, error) { return strconv.ParseFloat(p, 64) })
}

func parseInts(s string) ([]int, error) { return parseList(s, "int", strconv.Atoi) }
