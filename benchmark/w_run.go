package main

import (
	"fmt"
	"math/rand"
	goruntime "runtime"
	"time"

	"nlfl/internal/matmul"
	nrt "nlfl/internal/runtime"
	"nlfl/internal/trace"
)

// The run-grid and run-lease workloads share every input: an n=2048
// outer product cut into 32×32 ownerless 64² chunks, claimed
// demand-driven by nproc equal-speed workers with no modeled throttle.
const (
	runN    = 2048
	runGrid = 32
	// unthrottledRate is the WorkPerSecond that takes the token bucket
	// out of the picture: a 64² chunk costs 4 ns of credit.
	unthrottledRate = 1e12
	// runWarmOps is the warm-up charged to setup_s: the first Run pays
	// the kernel autotune and the heap's growth to its working size.
	runWarmOps = 3
	spotCells  = 64
)

type runInstance struct {
	nproc int
	lease bool
	a, b  []float64
	plan  *nrt.StrategyPlan
	opts  nrt.Options
}

func uniformVec(r *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 2*r.Float64() - 1
	}
	return v
}

// gridPlan is the ownerless demand-driven plan of the run-* workloads.
func gridPlan(n, grid int) (*nrt.StrategyPlan, error) {
	chunks, err := nrt.GridChunks(n, grid)
	if err != nil {
		return nil, err
	}
	volume := 0.0
	for _, c := range chunks {
		volume += float64(c.Data())
	}
	return &nrt.StrategyPlan{Strategy: "hom", N: n, Chunks: chunks, Grid: grid, K: 1, Predicted: volume}, nil
}

func equalSpeeds(p int) []float64 {
	s := make([]float64, p)
	for i := range s {
		s[i] = 1
	}
	return s
}

// leaseChaos arms the lease/first-writer-wins engine with no fault and a
// speculation threshold no chunk reaches, so it runs deterministically.
var leaseChaos = nrt.Chaos{SpeculateAfter: 30}

func setupRun(rc *runConfig, lease bool) (instance, error) {
	r := rand.New(rand.NewSource(rc.seed))
	plan, err := gridPlan(runN, runGrid)
	if err != nil {
		return nil, err
	}
	ri := &runInstance{
		nproc: rc.nproc,
		lease: lease,
		a:     uniformVec(r, runN),
		b:     uniformVec(r, runN),
		plan:  plan,
		opts:  nrt.Options{Speeds: equalSpeeds(rc.nproc), WorkPerSecond: unthrottledRate, VerifyEvery: 97},
	}
	if lease {
		ri.opts.Chaos = leaseChaos
	}
	for i := 0; i < runWarmOps; i++ {
		if err := ri.op(&opCtx{rng: r}); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return ri, nil
}

// spotVerify checks `cells` seeded cells of out against a[i]·b[j].
func spotVerify(out *matmul.Matrix, a, b []float64, r *rand.Rand, cells int) error {
	for k := 0; k < cells; k++ {
		i, j := r.Intn(len(a)), r.Intn(len(b))
		if got, want := out.At(i, j), a[i]*b[j]; got != want {
			return fmt.Errorf("output cell (%d,%d) = %v, want %v", i, j, got, want)
		}
	}
	return nil
}

// op is one closed-loop op: Run, audit the trace, spot-verify the output.
func (ri *runInstance) op(c *opCtx) error {
	sp := c.tr.start("runtime.Run", "runtime", rootSpan)
	t0 := time.Now()
	rep, err := nrt.Run(ri.plan, ri.a, ri.b, ri.opts)
	wall := time.Since(t0).Seconds()
	c.tr.end(sp)
	if err != nil {
		return err
	}
	sc := c.tr.start("trace.Check", "trace", rootSpan)
	t1 := time.Now()
	vs := trace.Check(rep.Trace, rep.Expect(1e-9))
	checkSeconds := time.Since(t1).Seconds()
	c.tr.end(sc)
	if len(vs) > 0 {
		return fmt.Errorf("%d oracle violations, first: %v", len(vs), vs[0])
	}
	sv := c.tr.start("spot-verify", "benchmark", rootSpan)
	err = spotVerify(rep.Out, ri.a, ri.b, c.rng, spotCells)
	c.tr.end(sv)
	if err != nil {
		return err
	}
	if c.tr != nil {
		c.after = func() { observeRun(c, sp, rep, wall, checkSeconds) }
	}
	return nil
}

// observeRun derives the runtime layer's figures of one traced op from
// the public report. The pool window (Report.Makespan) is a child of the
// Run span; its place inside Run is not observable from outside — only
// its length — so it is drawn end-aligned and Run's self time is the
// pre/post validation on both sides of it.
func observeRun(c *opCtx, runSpan int, rep *nrt.Report, wall, checkSeconds float64) {
	c.obs.add("runtime.pool_frac", rep.Makespan/wall)
	c.obs.add("runtime.prepost_ms", 1e3*(wall-rep.Makespan))
	spans, nonspan, workers := 0, 0.0, 0
	for _, row := range rep.Trace.Spans {
		busy, chunks := 0.0, 0
		for _, s := range row {
			busy += s.Duration()
			if s.Kind == trace.Compute {
				chunks++
			}
		}
		spans += len(row)
		if chunks > 0 {
			nonspan += 1e9 * (rep.Makespan - busy) / float64(chunks)
			workers++
		}
	}
	if workers > 0 {
		c.obs.add("runtime.nonspan_ns_per_chunk", nonspan/float64(workers))
	}
	if spans > 0 {
		c.obs.add("trace.check_ns_per_span", 1e9*checkSeconds/float64(spans))
	}
	run := c.tr.spans[runSpan]
	poolStart := max(run.Start, run.End-rep.Makespan)
	pool := c.tr.add(span{Name: "pool (Report.Makespan, end-aligned)", Layer: "runtime",
		Parent: runSpan, Start: poolStart, End: run.End, Derived: true})
	addWorkerSpans(c.tr, pool, rep.Trace, poolStart)
}

// addWorkerSpans hangs a report timeline's Comm/Compute spans under
// parent as parallel children; offset is the harness-clock time of the
// timeline's zero.
func addWorkerSpans(tr *opTrace, parent int, tl *trace.Timeline, offset float64) {
	for w, row := range tl.Spans {
		for _, s := range row {
			layer := "runtime"
			if s.Kind == trace.Compute {
				layer = "matmul"
			}
			tr.add(span{Name: s.Kind.String(), Layer: layer, Parent: parent,
				Start: offset + s.Start, End: offset + s.End, Derived: true, Worker: w + 1, perChunk: true})
		}
	}
}

func (ri *runInstance) measure(d time.Duration, seed int64, rec *recorder) (*measurement, error) {
	m := closedLoop(d, 1, seed, rec, selfCPUSeconds, ri.op)
	m.peakRSSMB = peakRSSMB("self")
	for _, name := range []string{"runtime.pool_frac", "runtime.prepost_ms", "runtime.nonspan_ns_per_chunk", "trace.check_ns_per_span"} {
		m.layer[name] = m.obs.p50(name)
	}
	return m, nil
}

// bareRuns times k Runs with no check around them and returns the median
// wall and Makespan in seconds.
func bareRuns(plan *nrt.StrategyPlan, a, b []float64, opts nrt.Options, k int) (wall, makespan float64, err error) {
	walls, spans := make([]float64, k), make([]float64, k)
	for i := range walls {
		t0 := time.Now()
		rep, err := nrt.Run(plan, a, b, opts)
		if err != nil {
			return 0, 0, err
		}
		walls[i], spans[i] = time.Since(t0).Seconds(), rep.Makespan
	}
	return median(walls), median(spans), nil
}

// mallocsOfRun is the heap allocation count of one Run (the harness is
// single-threaded while it runs, so the delta is the Run's own).
func mallocsOfRun(plan *nrt.StrategyPlan, a, b []float64, opts nrt.Options) (float64, error) {
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	if _, err := nrt.Run(plan, a, b, opts); err != nil {
		return 0, err
	}
	goruntime.ReadMemStats(&m1)
	return float64(m1.Mallocs - m0.Mallocs), nil
}

const probeRuns = 8

// probes measures the layers beneath Run beside the phase: the other
// engine on the same inputs, the bare kernel over the same split, the
// allocation slope per chunk, scaling against one processor, and the
// matmul kernels on their own.
func (ri *runInstance) probes(m *measurement) error {
	fast, lease := ri.opts, ri.opts
	fast.Chaos, lease.Chaos = nrt.Chaos{}, leaseChaos
	fastWall, fastSpan, err := bareRuns(ri.plan, ri.a, ri.b, fast, probeRuns)
	if err != nil {
		return err
	}
	leaseWall, leaseSpan, err := bareRuns(ri.plan, ri.a, ri.b, lease, probeRuns)
	if err != nil {
		return err
	}
	m.layer["runtime.lease_over_fast_ratio"] = leaseWall / fastWall
	m.layer["runtime.lease_over_fast_makespan_ratio"] = leaseSpan / fastSpan

	coarse, err := gridPlan(runN, 8)
	if err != nil {
		return err
	}
	fine, err := mallocsOfRun(ri.plan, ri.a, ri.b, ri.opts)
	if err != nil {
		return err
	}
	few, err := mallocsOfRun(coarse, ri.a, ri.b, ri.opts)
	if err != nil {
		return err
	}
	m.layer["runtime.allocs_per_chunk"] = (fine - few) / float64(len(ri.plan.Chunks)-len(coarse.Chunks))

	ownWall, ownSpan := fastWall, fastSpan
	if ri.lease {
		ownWall, ownSpan = leaseWall, leaseSpan
	}
	kernel := bareKernelSeconds(ri.a, ri.b, ri.nproc)
	m.layer["runtime.over_kernel_ratio"] = ownSpan / kernel

	one := ri.opts
	one.Speeds = equalSpeeds(1)
	prev := goruntime.GOMAXPROCS(1)
	oneWall, _, err := bareRuns(ri.plan, ri.a, ri.b, one, probeRuns)
	goruntime.GOMAXPROCS(prev)
	if err != nil {
		return err
	}
	m.layer["runtime.scaling_eff"] = (1 / ownWall) / (float64(ri.nproc) / oneWall)

	matmulProbes(m, ri.a, ri.b, ri.nproc)
	return nil
}

func (ri *runInstance) close() error { return nil }

// bareKernelSeconds fills the n×n product with matmul.OuterInto alone,
// the rows split evenly over `workers` harness goroutines: the floor the
// pool's Makespan is compared with. Median of five.
func bareKernelSeconds(a, b []float64, workers int) float64 {
	n := len(a)
	out := matmul.New(n, n)
	times := make([]float64, 5)
	for k := range times {
		t0 := time.Now()
		done := make(chan struct{}, workers)
		for w := 0; w < workers; w++ {
			go func(lo, hi int) {
				matmul.OuterInto(out, a, b, lo, hi, 0, n)
				done <- struct{}{}
			}(w*n/workers, (w+1)*n/workers)
		}
		for w := 0; w < workers; w++ {
			<-done
		}
		times[k] = time.Since(t0).Seconds()
	}
	return median(times)
}
