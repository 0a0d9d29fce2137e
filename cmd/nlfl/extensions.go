package main

import (
	"fmt"
	"math"

	"nlfl/internal/affinity"
	"nlfl/internal/dessim"
	"nlfl/internal/dlt"
	"nlfl/internal/experiments"
	"nlfl/internal/mapreduce"
	"nlfl/internal/matmul"
	"nlfl/internal/mrdlt"
	"nlfl/internal/nldlt"
	"nlfl/internal/platform"
	"nlfl/internal/polymul"
	"nlfl/internal/stats"
	"nlfl/internal/tree"
)

// runMapReduce compares distributions and runs the demo job.
func runMapReduce(args []string) error {
	fs := newFlagSet("mapreduce")
	n := fs.Int("n", 512, "matrix dimension for the closed-form menu")
	demo := fs.Int("demo", 12, "dimension of the real MapReduce product (n³ records!)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *demo < 1 {
		return fmt.Errorf("mapreduce: -demo %d is not a matrix dimension", *demo)
	}
	table, err := experiments.MapReduceComparison(*n, []float64{1, 1, 5, 9}, 2, 2)
	if err != nil {
		return err
	}
	fmt.Printf("matmul data-distribution menu at n=%d (speeds 1,1,5,9):\n\n", *n)
	fmt.Print(table.String())

	a := matmul.Random(*demo, *demo, 1)
	b := matmul.Random(*demo, *demo, 2)
	got, ctr, err := mapreduce.RunMatMulPairs(a, b, 4, 4, true)
	if err != nil {
		return err
	}
	ref, err := matmul.Naive(a, b)
	if err != nil {
		return err
	}
	fmt.Printf("\nreal MapReduce product at n=%d: correct=%v\n  %s\n",
		*demo, ref.Equal(got, 1e-9), ctr)
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
	pl, _, err := randomPlatform(*p, *dist, *seed, 16)
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
	if *n < 1 {
		return fmt.Errorf("polymul: -n %d is not a polynomial size", *n)
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

// runAdaptivity quantifies the Section 1.1 claim that demand-driven
// (MapReduce-style) scheduling tolerates workers that "perform poorly".
func runAdaptivity(args []string) error {
	fs := newFlagSet("adaptivity")
	p := fs.Int("p", 8, "number of workers")
	n := fs.Float64("n", 800, "linear load size")
	blocks := fs.Int("blocks", 256, "demand-driven task count")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rows, err := experiments.Adaptivity(*p, *n, *blocks, []float64{1, 0.5, 0.25, 0.1, 0.02})
	if err != nil {
		return err
	}
	fmt.Println("Adaptivity to a mid-run slowdown (worker 0 slows at 30% of the nominal")
	fmt.Printf("makespan; linear load N=%g on %d homogeneous workers; makespans):\n\n", *n, *p)
	fmt.Print(experiments.AdaptivityTable(rows).String())
	fmt.Println("\nThe static DLT optimum cannot react — its slowed worker keeps its whole")
	fmt.Println("chunk; the demand-driven pool reroutes all but one stranded block (which")
	fmt.Println("is what Hadoop's speculative backups then re-execute).")
	return nil
}

// runGantt draws schedule timelines: the linear DLT optimum and the
// futile non-linear one-port schedule, side by side.
func runGantt(args []string) error {
	fs := newFlagSet("gantt")
	p := fs.Int("p", 6, "number of workers")
	n := fs.Float64("n", 300, "load size N")
	alpha := fs.Float64("alpha", 2, "exponent for the non-linear schedule")
	seed := fs.Int64("seed", 4, "random seed")
	width := fs.Int("w", 64, "chart width")
	if err := fs.Parse(args); err != nil {
		return err
	}
	r := stats.NewRNG(*seed)
	ws := make([]platform.Worker, *p)
	for i := range ws {
		ws[i] = platform.Worker{Speed: 0.5 + 4*r.Float64(), Bandwidth: 0.5 + 4*r.Float64()}
	}
	pl, err := platform.New(ws)
	if err != nil {
		return err
	}

	lin, err := dlt.OptimalParallel(pl, *n)
	if err != nil {
		return err
	}
	linTl, err := dessim.RunSingleRound(pl, dlt.Chunks(lin, *n), dessim.ParallelLinks)
	if err != nil {
		return err
	}
	fmt.Printf("linear DLT optimum (α=1), parallel links — everyone finishes together:\n\n")
	fmt.Print(linTl.Gantt(*width))

	nl, err := nldlt.OptimalOnePort(pl, nldlt.Load{N: *n, Alpha: *alpha}, nil)
	if err != nil {
		return err
	}
	nlTl, err := dessim.RunSingleRound(pl, nl.Chunks(), dessim.OnePort)
	if err != nil {
		return err
	}
	fmt.Printf("\nnon-linear α=%g one-port schedule — looks busy, accomplishes %.1f%% of W:\n\n",
		*alpha, 100*nl.WorkFraction())
	fmt.Print(nlTl.Gantt(*width))
	return nil
}

// runTree demonstrates multi-level tree DLT: the equivalent-processor
// reduction and the topology-free no-free-lunch.
func runTree(args []string) error {
	fs := newFlagSet("tree")
	depth := fs.Int("depth", 2, "tree depth below the root")
	fanout := fs.Int("fanout", 3, "children per node")
	n := fs.Float64("n", 1000, "load size")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *depth < 0 || *fanout < 1 {
		return fmt.Errorf("invalid tree shape")
	}
	var build func(d int) *tree.Node
	build = func(d int) *tree.Node {
		nd := &tree.Node{Speed: 1, Bandwidth: 2}
		if d > 0 {
			for i := 0; i < *fanout; i++ {
				nd.Children = append(nd.Children, build(d-1))
			}
		}
		return nd
	}
	root := build(*depth)
	alloc, err := tree.Allocate(root, *n)
	if err != nil {
		return err
	}
	fmt.Printf("uniform tree: depth %d, fanout %d, %d nodes\n", *depth, *fanout, root.Size())
	fmt.Printf("optimal single-round makespan for a LINEAR load of %g: %.4g\n", *n, alloc.Makespan)
	fmt.Printf("  (all %d nodes finish simultaneously; total allocated %.6g)\n",
		root.Size(), alloc.TotalLoad())
	fmt.Println("\nthe same chunk vector applied to an α-power load claims only:")
	for _, alpha := range []float64{1, 1.5, 2, 3} {
		fmt.Printf("  α=%-4g → %.4f of W = N^α\n", alpha, alloc.WorkFraction(alpha))
	}
	fmt.Println("\nthe no-free-lunch is topology-free: trees lose work exactly like stars.")
	return nil
}

// runReturns sweeps the result-collection extension: the Section 1.2
// exclusion restored, showing FIFO/LIFO incomparability.
func runReturns(args []string) error {
	fs := newFlagSet("returns")
	p := fs.Int("p", 6, "number of workers")
	trials := fs.Int("trials", 100, "random platforms per δ")
	seed := fs.Int64("seed", 13, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rows, err := experiments.ReturnsSweep([]float64{0, 0.25, 0.5, 1}, *p, *trials, *seed)
	if err != nil {
		return err
	}
	fmt.Println("Return messages (the §1.2 exclusion restored): FIFO vs LIFO collection")
	fmt.Printf("through the master's ingress, one chunk per worker, %d trials/δ:\n\n", *trials)
	fmt.Print(experiments.ReturnsTable(rows).String())
	fmt.Println("\nNeither order dominates — one reason the paper sets returns aside to")
	fmt.Println("isolate the non-linearity question.")
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
	pl, _, err := randomPlatform(*p, *dist, *seed, 16)
	if err != nil {
		return err
	}
	// Every run comes before the first line, so a rejected -n or -g
	// prints nothing.
	rs, err := affinity.Compare(pl, *n, *g)
	if err != nil {
		return err
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
	// How much worker memory the proposal needs: LRU-bounded caches.
	mem, err := experiments.MemorySweep(pl, *n, *g, []int{0, *g / 4, *g / 2, *g, 2 * *g})
	if err != nil {
		return err
	}
	fmt.Println("Conclusion's proposal — demand-driven assignment with data affinity")
	fmt.Printf("(outer product, N=%g, %d×%d blocks, platform %v):\n\n", *n, *g, *g, pl)
	for _, r := range rs {
		fmt.Printf("  %s\n", r.String())
	}
	fmt.Println("\nratio-to-LB across block granularities:")
	fmt.Println()
	fmt.Print(experiments.AffinityTable(sweep).String())
	fmt.Println("\nvolume vs per-worker cache capacity (LRU, chunks):")
	fmt.Println()
	fmt.Print(experiments.MemoryTable(mem).String())
	return nil
}
