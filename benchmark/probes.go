package main

import (
	"fmt"
	goruntime "runtime"
	"time"

	"nlfl/internal/dessim"
	"nlfl/internal/experiments"
	"nlfl/internal/matmul"
	"nlfl/internal/outer"
	"nlfl/internal/partition"
	"nlfl/internal/platform"
	"nlfl/internal/samplesort"
	"nlfl/internal/stats"
)

// Layer probes run beside a traced phase: each times one public function
// of a layer on its own, with the arguments the workload's path gives it,
// so a later change to that layer has a number to move.

// bestOf returns the smallest of k timings of f, in seconds: the probe
// wants the layer's cost, not the host's interruptions.
func bestOf(k int, f func()) float64 {
	best := 0.0
	for i := 0; i < k; i++ {
		t0 := time.Now()
		f()
		if d := time.Since(t0).Seconds(); i == 0 || d < best {
			best = d
		}
	}
	return best
}

// maxBandwidthArrayBytes caps the streaming-fill array when four times
// the last-level cache is more memory than a sandbox should be asked for.
const maxBandwidthArrayBytes = 2 << 30

// matmulProbes times the kernels under the runtime: the single-threaded
// outer-product fill against a plain store loop over an array of at
// least four times the last-level cache (both sizes are printed), and
// the packed GEMM single- and multi-threaded at n=1024 (no job path uses
// GEMM; the figures are a baseline for a later kernel issue).
func matmulProbes(m *measurement, a, b []float64, nproc int) {
	n := len(a)
	out := matmul.New(n, n)
	fill := bestOf(3, func() { matmul.OuterInto(out, a, b, 0, n, 0, n) })
	cells := float64(n) * float64(n)
	m.layer["matmul.outer_into_cells_per_s"] = cells / fill

	llc := llcBytes()
	arrayBytes := min(4*llc, maxBandwidthArrayBytes)
	stream := make([]float64, arrayBytes/8)
	store := bestOf(2, func() {
		for i := range stream {
			stream[i] = 1.5
		}
	})
	storeBW := float64(arrayBytes) / store
	m.layer["matmul.store_bw_frac"] = (8 * cells / fill) / storeBW
	m.notes = append(m.notes, fmt.Sprintf(
		"matmul.store_bw_frac: OuterInto writes %.0f MB (computed: 8·n², n=%d) at %.2f GB/s; plain fill of a %.0f MB array (LLC %.0f MB) stores %.2f GB/s",
		8*cells/1e6, n, 8*cells/fill/1e9, float64(arrayBytes)/1e6, float64(llc)/1e6, storeBW/1e9))
	stream = nil
	goruntime.GC()

	const gemmN = 1024
	x, y := matmul.Random(gemmN, gemmN, 1), matmul.Random(gemmN, gemmN, 2)
	flops := 2 * float64(gemmN) * float64(gemmN) * float64(gemmN)
	tiled := bestOf(2, func() { _, _ = matmul.Tiled(x, y) })
	par := bestOf(2, func() { _, _ = matmul.ParallelTiled(x, y, nproc) })
	m.layer["matmul.tiled_gflops_n1024"] = flops / tiled / 1e9
	m.layer["matmul.parallel_tiled_gflops_n1024"] = flops / par / 1e9
	m.notes = append(m.notes, fmt.Sprintf(
		"matmul GEMM n=%d: %.3g flops (computed: 2n³), %.0f MB of operands and result (computed: 3·8·n²)",
		gemmN, flops, 3*8*float64(gemmN*gemmN)/1e6))
}

// paperProbes calls the experiment functions behind `nlfl all` in
// process with the CLI's arguments, and the partitioner, refinement
// search, simulator and sorter beneath them on a p=100 log-normal
// platform.
func paperProbes(m *measurement, seed int64) error {
	var err error
	timed := func(name string, f func() error) {
		if err != nil {
			return
		}
		t0 := time.Now()
		if e := f(); e != nil {
			err = fmt.Errorf("%s: %w", name, e)
		}
		m.layer[name] = time.Since(t0).Seconds()
	}
	timed("experiments.fig4_s", func() error {
		for _, profile := range []platform.SpeedProfile{platform.ProfileHomogeneous, platform.ProfileUniform, platform.ProfileLogNormal} {
			cfg := experiments.DefaultFig4Config(profile)
			cfg.Seed = seed
			if _, e := experiments.Fig4(cfg); e != nil {
				return e
			}
		}
		return nil
	})
	timed("experiments.sort_s", func() error {
		_, e := experiments.SortScaling([]int{1 << 10, 1 << 14, 1 << 17, 1 << 20}, 8, seed)
		return e
	})
	timed("experiments.nonlinear_s", func() error {
		_, _, e := experiments.NonLinearTable([]int{2, 4, 10, 32, 100}, []float64{1.5, 2, 3}, 1000)
		return e
	})
	timed("experiments.faults_s", func() error {
		cfg := experiments.DefaultFaultSweepConfig()
		cfg.Seed = seed
		_, e := experiments.FaultSweep(cfg)
		return e
	})
	if err != nil {
		return err
	}

	pl, err := platform.Generate(100, stats.LogNormal{Mu: 0, Sigma: 1}, stats.NewRNG(seed))
	if err != nil {
		return err
	}
	m.layer["partition.perisum_us_p100"] = 1e6 * bestOf(5, func() {
		if _, e := partition.PeriSum(pl.Speeds()); e != nil {
			err = e
		}
	})
	m.layer["outer.commhomk_us_p100"] = 1e6 * bestOf(5, func() {
		if _, e := outer.CommhomK(pl, 1000, 0.01, 0); e != nil {
			err = e
		}
	})
	const tasks = 10000
	pool := make([]dessim.Task, tasks)
	for i := range pool {
		pool[i] = dessim.Task{Data: 1, Work: 2}
	}
	m.layer["dessim.demand_driven_us_per_task"] = 1e6 / tasks * bestOf(3, func() {
		if _, e := dessim.RunDemandDriven(pl, pool, dessim.OnePort); e != nil {
			err = e
		}
	})
	const sortN = 1 << 20
	r := stats.NewRNG(seed)
	keys := make([]float64, sortN)
	for i := range keys {
		keys[i] = r.Float64()
	}
	m.layer["samplesort.elems_per_s_n1m"] = sortN / bestOf(2, func() {
		if _, _, e := samplesort.Sort(keys, samplesort.Config{Workers: 8, Seed: seed, Sequential: true}); e != nil {
			err = e
		}
	})
	return err
}
