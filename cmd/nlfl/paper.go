package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"nlfl/internal/core"
	"nlfl/internal/experiments"
	"nlfl/internal/matmul"
	"nlfl/internal/outer"
	"nlfl/internal/partition"
	"nlfl/internal/platform"
	"nlfl/internal/results"
	"nlfl/internal/samplesort"
)

// runFig4 reproduces one panel of Figure 4.
func runFig4(args []string) error {
	fs := newFlagSet("fig4")
	dist := fs.String("dist", "uniform", "speed profile: homogeneous|uniform|lognormal|bimodal")
	trials := fs.Int("trials", 100, "random platforms per point (paper: 100)")
	seed := fs.Int64("seed", 42, "random seed")
	pmax := fs.Int("pmax", 100, "largest processor count")
	k := fs.Float64("k", 16, "speed factor for the bimodal profile")
	csv := fs.Bool("csv", false, "emit CSV instead of chart+table")
	logy := fs.Bool("log", false, "log-scale y axis for the chart")
	out := fs.String("out", "", "also save the points as a JSON result record")
	if err := fs.Parse(args); err != nil {
		return err
	}
	profile, err := platform.ParseProfile(*dist)
	if err != nil {
		return err
	}
	cfg := experiments.DefaultFig4Config(profile)
	cfg.Trials = *trials
	cfg.Seed = *seed
	cfg.BimodalK = *k
	cfg.Ps = nil
	for p := 10; p <= *pmax; p += 10 {
		cfg.Ps = append(cfg.Ps, p)
	}
	points, err := experiments.Fig4(cfg)
	if err != nil {
		return err
	}
	if *out != "" {
		rec := results.Record{
			Experiment: "fig4-" + profile.String(),
			Params: map[string]float64{
				"trials": float64(*trials), "seed": float64(*seed),
				"pmax": float64(*pmax), "bimodalK": *k,
			},
			Data: points,
		}
		if err := results.Save(*out, rec); err != nil {
			return err
		}
		fmt.Printf("saved %s\n", *out)
	}
	title := fmt.Sprintf("Figure 4 — %s computation speeds (%d trials/point)", profile, *trials)
	chart := experiments.Fig4Chart(points, title)
	chart.LogY = *logy
	if *csv {
		fmt.Print(chart.CSV())
		return nil
	}
	fmt.Print(chart.Render())
	fmt.Println()
	fmt.Print(experiments.Fig4Table(points).String())
	return nil
}

// runNonLinear reproduces the Section 2 fraction table.
func runNonLinear(args []string) error {
	fs := newFlagSet("nonlinear")
	n := fs.Float64("n", 1000, "load size N")
	alphas := fs.String("alphas", "1.5,2,3", "comma-separated cost exponents")
	ps := fs.String("ps", "2,4,10,32,100", "comma-separated platform sizes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	alphaList, err := parseFloats(*alphas)
	if err != nil {
		return err
	}
	pList, err := parseInts(*ps)
	if err != nil {
		return err
	}
	table, _, err := experiments.NonLinearTable(pList, alphaList, *n)
	if err != nil {
		return err
	}
	fmt.Println("Section 2 — fraction of the total work W = N^α left UNDONE by an")
	fmt.Println("optimal one-phase DLT distribution (closed form: 1 - 1/P^(α-1)):")
	fmt.Println()
	fmt.Print(table.String())
	fmt.Println("\nThe fraction tends to 1 as P grows for every α > 1 — there is no free lunch.")
	return nil
}

// runSort reproduces the Section 3 sorting experiments.
func runSort(args []string) error {
	fs := newFlagSet("sort")
	p := fs.Int("p", 8, "number of workers")
	seed := fs.Int64("seed", 7, "random seed")
	trials := fs.Int("trials", 30, "concentration-check trials")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rows, err := experiments.SortScaling([]int{1 << 10, 1 << 14, 1 << 17, 1 << 20}, *p, *seed)
	if err != nil {
		return err
	}
	res, err := samplesort.CheckConcentration(1<<16, *p, 0, *trials, *seed)
	if err != nil {
		return err
	}
	fmt.Println("Section 3 — sorting as an almost-divisible load:")
	fmt.Println()
	fmt.Print(experiments.SortScalingTable(rows, *p).String())
	fmt.Println()
	fmt.Printf("Theorem B.4 check (N=%d, p=%d, s=log²N=%d, %d trials):\n", res.N, res.P, res.S, res.Trials)
	fmt.Printf("  empirical P(max bucket > threshold) = %.3f (bound: %.3f)\n",
		res.EmpiricalFailureRate(), res.FailureBound)
	fmt.Printf("  mean max-bucket/(N/p) = %.4f (threshold ratio: %.4f)\n",
		res.MeanRatio, res.Threshold/(float64(res.N)/float64(res.P)))
	return nil
}

// runRho reproduces the Section 4.1.3 ρ analysis.
func runRho(args []string) error {
	fs := newFlagSet("rho")
	p := fs.Int("p", 20, "platform size (even: half slow, half fast)")
	ks := fs.String("ks", "1,4,16,64,100", "comma-separated speed factors")
	if err := fs.Parse(args); err != nil {
		return err
	}
	kList, err := parseFloats(*ks)
	if err != nil {
		return err
	}
	points, err := experiments.RhoSweep(kList, *p, 1000)
	if err != nil {
		return err
	}
	fmt.Println("Section 4.1.3 — ρ = Comm_hom/Comm_het on the half-slow/half-k×-fast platform:")
	fmt.Println()
	fmt.Print(experiments.RhoTable(points).String())
	return nil
}

// runPartition reproduces the E12 partitioner-quality sweep.
func runPartition(args []string) error {
	fs := newFlagSet("partition")
	trials := fs.Int("trials", 50, "trials per cell")
	seed := fs.Int64("seed", 11, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rows, err := experiments.PartitionQuality([]int{10, 25, 50, 100}, *trials, *seed)
	if err != nil {
		return err
	}
	fmt.Println("Section 4.1.2 — PERI-SUM column-based partitioner quality Ĉ/LB")
	fmt.Println("(bound ≤ 1 + (5/4)·LB, i.e. ratio ≤ 7/4: observed, not guaranteed; paper observes ≈1.02):")
	fmt.Println()
	fmt.Print(experiments.PartitionQualityTable(rows).String())
	return nil
}

// runOuter details the three strategies on one random platform.
func runOuter(args []string) error {
	fs := newFlagSet("outer")
	p := fs.Int("p", 20, "number of workers")
	n := fs.Float64("n", 1000, "vector length N")
	dist := fs.String("dist", "uniform", "speed profile")
	seed := fs.Int64("seed", 3, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	pl, _, err := randomPlatform(*p, *dist, *seed, 16)
	if err != nil {
		return err
	}
	// Everything is computed before anything prints: the planner rejects
	// a size the closed forms would print as NaN.
	hom := outer.Commhom(pl, *n)
	homk, err := outer.CommhomK(pl, *n, 0.01, 0)
	if err != nil {
		return err
	}
	het, err := outer.Commhet(pl, *n)
	if err != nil {
		return err
	}
	plan, err := core.PlanOuterProduct(pl, *n)
	if err != nil {
		return err
	}
	fmt.Printf("platform: %v\n", pl)
	fmt.Printf("lower bound LB = 2N·Σ√xᵢ = %.4g\n\n", outer.LowerBound(pl, *n))
	fmt.Println(hom.String())
	fmt.Println(homk.String())
	fmt.Println(het.String())
	fmt.Println()
	fmt.Print(plan.String())
	return nil
}

// runMatMul runs a real verified product and the layout volume accounting.
func runMatMul(args []string) error {
	fs := newFlagSet("matmul")
	n := fs.Int("n", 96, "matrix dimension")
	seed := fs.Int64("seed", 5, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n < 8 {
		return fmt.Errorf("matmul: -n %d is below 8: the 2×2 block-cyclic layout needs blocks of n/8 ≥ 1 rows", *n)
	}
	a := matmul.Random(*n, *n, *seed)
	b := matmul.Random(*n, *n, *seed+1)
	ref, err := matmul.Naive(a, b)
	if err != nil {
		return err
	}
	op, err := matmul.OuterProduct(a, b)
	if err != nil {
		return err
	}
	fmt.Printf("outer-product algorithm == naive kernel: %v\n\n", ref.Equal(op, 1e-9))

	grid, err := matmul.NewBlockCyclic(*n, 2, 2, *n/8)
	if err != nil {
		return err
	}
	gridRep := matmul.CommVolume(grid)
	fmt.Printf("%-24s total=%.4g (closed form %.4g)\n", gridRep.Layout,
		gridRep.Total, matmul.GridCommClosedForm(2, 2, *n))

	speeds := []float64{1, 2, 4, 9}
	part, err := partition.PeriSum(speeds)
	if err != nil {
		return err
	}
	rect, err := matmul.NewRectLayout(*n, part)
	if err != nil {
		return err
	}
	rectRep := matmul.CommVolume(rect)
	fmt.Printf("%-24s total=%.4g (closed form %.4g)\n", rectRep.Layout,
		rectRep.Total, matmul.RectCommClosedForm(part, *n))
	fmt.Printf("\nspeed-weighted work imbalance: grid=%.3g rect=%.3g (speeds %v)\n",
		gridRep.Imbalance(speeds), rectRep.Imbalance(speeds), speeds)
	return nil
}

// runFig2 draws the Figure 2 footprints: the rectangle each worker gets
// under the Heterogeneous Blocks layout.
func runFig2(args []string) error {
	fs := newFlagSet("fig2")
	p := fs.Int("p", 8, "number of workers")
	dist := fs.String("dist", "uniform", "speed profile")
	seed := fs.Int64("seed", 9, "random seed")
	width := fs.Int("w", 60, "drawing width")
	height := fs.Int("h", 20, "drawing height")
	if err := fs.Parse(args); err != nil {
		return err
	}
	pl, _, err := randomPlatform(*p, *dist, *seed, 16)
	if err != nil {
		return err
	}
	part, err := partition.PeriSum(pl.Speeds())
	if err != nil {
		return err
	}
	fmt.Printf("Figure 2 — Heterogeneous Blocks footprints for %v:\n\n", pl)
	fmt.Print(part.ASCII(*width, *height))
	norm, err := partition.Normalize(pl.Speeds())
	if err != nil {
		return err
	}
	fmt.Printf("\nΣ half-perimeters Ĉ = %.4f, lower bound 2Σ√aᵢ = %.4f (ratio %.4f)\n",
		part.SumHalfPerimeters(), partition.LowerBound(norm),
		part.SumHalfPerimeters()/partition.LowerBound(norm))

	// The Figure 2(b) counterpart: the same workers under Homogeneous
	// Blocks, demand-driven — footprints scatter across the whole domain.
	g := *width / 2
	if g < 4 {
		g = 4
	}
	grid, err := outer.BlockAssignment(pl, g)
	if err != nil {
		return err
	}
	fmt.Printf("\nsame platform under Homogeneous Blocks (%d×%d demand-driven blocks):\n\n", g, g)
	fmt.Print(outer.RenderBlockAssignment(grid))
	fmt.Println("\nFast workers' data is scattered — every block re-ships its vector chunks,")
	fmt.Println("which is exactly the redundancy Comm_het eliminates.")
	return nil
}

// runAnalyze prints the core divisibility verdict.
func runAnalyze(args []string) error {
	fs := newFlagSet("analyze")
	kind := fs.String("kind", "power", "workload kind: linear|loglinear|power")
	n := fs.Float64("n", 1e6, "input size N")
	alpha := fs.Float64("alpha", 2, "cost exponent (power only)")
	p := fs.Int("p", 100, "platform size")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var k core.WorkloadKind
	switch strings.ToLower(*kind) {
	case "linear":
		k = core.Linear
	case "loglinear", "sort":
		k = core.LogLinear
	case "power":
		k = core.Power
	default:
		return fmt.Errorf("unknown workload kind %q", *kind)
	}
	v, err := core.Analyze(core.Workload{Kind: k, N: *n, Alpha: *alpha}, *p)
	if err != nil {
		return err
	}
	fmt.Println(v.String())
	return nil
}

// runAll reproduces every experiment with paper settings and saves each
// as a JSON record under -outdir — the one-command reproduction driver.
// Everything is computed once, by experiments.RunSuite, before anything is
// written: a failing run leaves no record behind.
func runAll(args []string) error {
	fs := newFlagSet("all")
	outdir := fs.String("outdir", "results", "directory for the JSON records")
	trials := fs.Int("trials", 100, "Figure 4 trials per point")
	seed := fs.Int64("seed", 42, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The suite also computes E12's own 50-trial record (QualityRecord,
	// beside its trials/2+1 copy); the robustness sweep (crashes vs
	// demand-driven / single-round / re-planning), the one record the
	// suite does not hold, runs beside it.
	var faultRows []experiments.FaultSweepRow
	fcfg := experiments.DefaultFaultSweepConfig()
	fcfg.Seed = *seed
	suite, err := experiments.RunSuite(experiments.SuiteConfig{Trials: *trials, Seed: *seed},
		func() (err error) { faultRows, err = experiments.FaultSweep(fcfg); return err },
	)
	if err != nil {
		return err
	}
	s := float64(*seed)
	sweep := map[string]float64{"trials": float64(*trials), "seed": s}
	platform10 := map[string]float64{"p": 10, "seed": s}
	if err := os.MkdirAll(*outdir, 0o755); err != nil {
		return err
	}
	for _, rec := range []results.Record{
		{Experiment: "e1-nonlinear", Data: suite.NonLinear},
		{Experiment: "e3-sort-scaling", Params: map[string]float64{"p": 8, "seed": s}, Data: suite.SortScaling},
		{Experiment: "e6-rho", Params: map[string]float64{"p": 20}, Data: suite.Rho},
		{Experiment: "fig4-homogeneous", Params: sweep, Data: suite.Fig4Homogeneous},
		{Experiment: "fig4-uniform", Params: sweep, Data: suite.Fig4Uniform},
		{Experiment: "fig4-lognormal", Params: sweep, Data: suite.Fig4LogNormal},
		{Experiment: "e12-partition-quality", Params: map[string]float64{"trials": experiments.QualityTrials, "seed": s}, Data: suite.QualityRecord},
		{Experiment: "ext-affinity", Params: platform10, Data: suite.Affinity},
		{Experiment: "ext-bottleneck", Params: platform10, Data: suite.Bottleneck},
		{Experiment: "ext-faults", Params: map[string]float64{"p": float64(fcfg.P), "seed": s}, Data: faultRows},
		// The whole evaluation as one structured record (for `nlfl compare`).
		{Experiment: "suite", Params: sweep, Data: suite},
	} {
		path := filepath.Join(*outdir, rec.Experiment+".json")
		if err := results.Save(path, rec); err != nil {
			return err
		}
		fmt.Println("wrote", path)
	}
	return nil
}

// runCompare diffs two saved result records within a relative tolerance —
// the regression check for reproduced experiments.
func runCompare(args []string) error {
	fs := newFlagSet("compare")
	tol := fs.Float64("tol", 0.02, "relative tolerance for numeric values")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) != 2 {
		return fmt.Errorf("usage: nlfl compare [-tol x] old.json new.json")
	}
	a, err := results.Load(rest[0])
	if err != nil {
		return err
	}
	b, err := results.Load(rest[1])
	if err != nil {
		return err
	}
	diffs := results.Compare(a, b, *tol)
	if len(diffs) == 0 {
		fmt.Printf("records agree within %.3g relative tolerance\n", *tol)
		return nil
	}
	for _, d := range diffs {
		fmt.Println(" ", d)
	}
	return fmt.Errorf("%d differences found", len(diffs))
}
