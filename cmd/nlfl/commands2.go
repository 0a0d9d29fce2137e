package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"

	"nlfl/internal/affinity"
	"nlfl/internal/experiments"
	"nlfl/internal/mrdlt"
	"nlfl/internal/outer"
	"nlfl/internal/partition"
	"nlfl/internal/platform"
	"nlfl/internal/polymul"
	"nlfl/internal/results"
	"nlfl/internal/stats"
)

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
	profile, err := platform.ParseProfile(*dist)
	if err != nil {
		return err
	}
	pl, err := platform.Generate(*p, profile.Distribution(16), stats.NewRNG(*seed))
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

// runAffinity reproduces the conclusion's proposed mechanism: demand-
// driven task assignment with data affinity.
func runAffinity(args []string) error {
	fs := newFlagSet("affinity")
	p := fs.Int("p", 10, "number of workers")
	n := fs.Float64("n", 1000, "vector length N")
	g := fs.Int("g", 30, "blocks per dimension")
	dist := fs.String("dist", "uniform", "speed profile")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	profile, err := platform.ParseProfile(*dist)
	if err != nil {
		return err
	}
	pl, err := platform.Generate(*p, profile.Distribution(16), stats.NewRNG(*seed))
	if err != nil {
		return err
	}
	fmt.Println("Conclusion's proposal — demand-driven assignment with data affinity")
	fmt.Printf("(outer product, N=%g, %d×%d blocks, platform %v):\n\n", *n, *g, *g, pl)
	rs, err := affinity.Compare(pl, *n, *g)
	if err != nil {
		return err
	}
	for _, r := range rs {
		fmt.Printf("  %s\n", r.String())
	}
	// Granularity sweep: the affinity policy stays nearly flat while the
	// no-cache volume grows linearly with the grid.
	gs := []int{*g / 2, *g, *g * 2}
	if gs[0] < 1 {
		gs[0] = 1
	}
	sweep, err := experiments.AffinitySweep(pl, *n, gs)
	if err != nil {
		return err
	}
	fmt.Println("\nratio-to-LB across block granularities:")
	fmt.Println()
	fmt.Print(experiments.AffinityTable(sweep).String())

	// How much worker memory the proposal needs: LRU-bounded caches.
	mem, err := experiments.MemorySweep(pl, *n, *g, []int{0, *g / 4, *g / 2, *g, 2 * *g})
	if err != nil {
		return err
	}
	fmt.Println("\nvolume vs per-worker cache capacity (LRU, chunks):")
	fmt.Println()
	fmt.Print(experiments.MemoryTable(mem).String())
	return nil
}

// runBottleneck sweeps link bandwidth to show when communication volume
// becomes the makespan bottleneck (the paper's motivation for minimizing
// volume).
func runBottleneck(args []string) error {
	fs := newFlagSet("bottleneck")
	p := fs.Int("p", 20, "number of workers")
	n := fs.Float64("n", 1000, "vector length N")
	dist := fs.String("dist", "uniform", "speed profile")
	seed := fs.Int64("seed", 5, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	profile, err := platform.ParseProfile(*dist)
	if err != nil {
		return err
	}
	pl, err := platform.Generate(*p, profile.Distribution(16), stats.NewRNG(*seed))
	if err != nil {
		return err
	}
	points, err := experiments.Bottleneck(pl, *n, 0.01, []float64{0.01, 0.03, 0.1, 0.3, 1, 10, 1000})
	if err != nil {
		return err
	}
	fmt.Println("Link-bottleneck sweep — single-round makespan over the pure-compute bound")
	fmt.Printf("(outer product, N=%g, platform %v):\n\n", *n, pl)
	fmt.Print(experiments.BottleneckTable(points).String())
	fmt.Println("\nAs links slow down, Comm_hom/k's inflated footprints dominate its makespan first.")
	return nil
}

// runMRDLT demonstrates the divisible MapReduce scheduling of [25]: the
// linear-complexity case where DLT-style optimization genuinely works.
func runMRDLT(args []string) error {
	fs := newFlagSet("mrdlt")
	p := fs.Int("p", 8, "number of mappers")
	v := fs.Float64("v", 1000, "input volume V")
	gamma := fs.Float64("gamma", 0.5, "map output ratio γ")
	r := fs.Int("r", 4, "number of reducers")
	seed := fs.Int64("seed", 6, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rng := stats.NewRNG(*seed)
	pl, err := platform.Generate(*p, stats.Uniform{Lo: 1, Hi: 10}, rng)
	if err != nil {
		return err
	}
	job := mrdlt.Job{V: *v, Gamma: *gamma, Reducers: *r, ReducerSpeed: 2}
	eq, err := mrdlt.EqualSplit(pl, job)
	if err != nil {
		return err
	}
	opt, err := mrdlt.Optimize(pl, job, 0)
	if err != nil {
		return err
	}
	fmt.Println("Divisible MapReduce scheduling (Berlińska–Drozdowski model, paper ref [25]):")
	fmt.Printf("  platform %v, V=%g, γ=%g, %d reducers\n\n", pl, *v, *gamma, *r)
	fmt.Printf("  equal split: makespan %.4g (map %.4g, shuffle %.4g)\n", eq.Makespan, eq.MapFinish, eq.ShuffleFinish)
	fmt.Printf("  optimized:   makespan %.4g (map %.4g, shuffle %.4g)\n", opt.Makespan, opt.MapFinish, opt.ShuffleFinish)
	fmt.Printf("  speedup %.3f× — DLT optimization pays off because every phase is LINEAR;\n", eq.Makespan/opt.Makespan)
	fmt.Println("  Section 2 proves no such chunk-vector optimization can help when cost is N^α, α>1.")
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

// runPolymul demonstrates the polynomial-multiplication case study: the
// application from the refuted reference [20], whose divisibility verdict
// flips with the algorithm choice.
func runPolymul(args []string) error {
	fs := newFlagSet("polymul")
	n := fs.Int("n", 512, "polynomial size for the correctness demo")
	bigN := fs.Float64("N", 1<<20, "problem size for the verdicts")
	p := fs.Int("p", 64, "platform size for the verdicts")
	seed := fs.Int64("seed", 10, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	r := stats.NewRNG(*seed)
	a := stats.SampleN(stats.Uniform{Lo: -1, Hi: 1}, r, *n)
	b := stats.SampleN(stats.Uniform{Lo: -1, Hi: 1}, r, *n)
	ref, err := polymul.Naive(a, b)
	if err != nil {
		return err
	}
	fmt.Printf("multiplying two degree-%d polynomials (paper ref [20]'s application):\n\n", *n-1)
	for _, algo := range []polymul.Algorithm{polymul.AlgoNaive, polymul.AlgoKaratsuba, polymul.AlgoFFT} {
		got, err := polymul.Multiply(a, b, algo)
		if err != nil {
			return err
		}
		maxErr := 0.0
		for i := range ref {
			if d := math.Abs(got[i] - ref[i]); d > maxErr {
				maxErr = d
			}
		}
		v, err := polymul.Verdict(algo, *bigN, *p)
		if err != nil {
			return err
		}
		fmt.Printf("  %-11s max|Δ|=%.2g   %s\n", algo, maxErr, v)
	}
	fmt.Println("\nSame application, three verdicts: the algorithm, not the problem,")
	fmt.Println("decides whether the workload is a divisible load.")
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
	// The two records the suite does not hold run beside it: E12 at its
	// own 50 trials (the suite's copy takes trials/2+1) and the robustness
	// sweep (crashes vs demand-driven / single-round / re-planning).
	var quality []experiments.PartitionQualityRow
	var faultRows []experiments.FaultSweepRow
	fcfg := experiments.DefaultFaultSweepConfig()
	fcfg.Seed = *seed
	suite, err := experiments.RunSuite(experiments.SuiteConfig{Trials: *trials, Seed: *seed},
		func() (err error) {
			quality, err = experiments.PartitionQuality([]int{10, 25, 50, 100}, 50, *seed)
			return err
		},
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
		{Experiment: "e12-partition-quality", Params: map[string]float64{"trials": 50, "seed": s}, Data: quality},
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
