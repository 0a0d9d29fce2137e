package main

import "slices"

// metricDef names one metric. The names are final: later issues cite
// "<metric> on <workload>".
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is, for an end-to-end metric, the share of the parent's median
	// by which it may worsen before a change counts as a regression.
	bound float64
	// gated names the workloads ISSUE 13 defines a bounded metric on: there
	// -aa holds its run-to-run range to the bound. Empty means every
	// workload. Elsewhere the metric is printed because the benchmark
	// contract has one list of metrics for all workloads.
	gated []string
	// moves says, for a per-layer metric, which end-to-end metric it
	// should move, on which workload. The layer is the name's prefix.
	moves string
}

// endToEnd are the metrics that carry a bound, printed by every workload
// with tracing off. ISSUE 13 gives each metric its bound and the rule: a
// metric whose (max − min) / median over ten runs of one build exceeds its
// bound is demoted to the per-layer list, and no bound goes past 15 %. On
// the shared two-core host the benchmark was written on that rule leaves
// set-up time and memory; see `timings` and README.md.
//
// peak_rss_mb is the issue's metric of serve-http, at 10 %. It stands at
// 15 % because the contract applies the one bound to every workload, and
// the harness process's own peak on fleet-saturated — collector overshoot
// at 1.2 GB/s of allocation — spread by 10 % between its quartiles.
//
// failed_frac is not among them because a metric whose expected value is 0
// cannot carry a relative bound: it is the `failed`/`attempted` pair of
// the result line (bound: 0 failures), and is repeated among the per-layer
// figures.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.15, gated: []string{"serve-http"}},
}

// timings are the end-to-end metrics ISSUE 13 names that could not hold a
// bound of 15 % on this host (its speed drifts by a quarter to a half
// within the hour, and a run cannot filter out what lasts longer than it
// does). They keep their names, lead the per-layer list, and are printed
// by both passes; a claim about one rests on alternating pairs of runs, not
// on a bound.
var timings = []metricDef{
	{name: "ops_per_s", unit: "1/s", better: "higher", moves: "itself: an end-to-end metric of ISSUE 13 (bound 10%) that holds no bound on this host"},
	{name: "latency_p50_ms", unit: "ms", better: "lower", moves: "itself: an end-to-end metric of ISSUE 13 (bound 10%) that holds no bound on this host"},
	{name: "latency_p90_ms", unit: "ms", better: "lower", moves: "itself: an end-to-end metric of ISSUE 13 (bound 10%) that holds no bound on this host"},
	{name: "cpu_ms_per_op", unit: "ms", better: "lower", moves: "itself: an end-to-end metric of ISSUE 13 (bound 5%) that holds no bound on this host"},
}

// perLayer is the traced pass's list: the timings, then the layers' own
// figures. Every one is printed on every workload; a layer figure reads 0
// on a workload whose path does not cross its layer.
var perLayer = slices.Concat(timings, layerFigures)

var layerFigures = []metricDef{
	{name: "cmd-nlfl.submit_rtt_p50_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on serve-http only"},
	{name: "cmd-nlfl.poll_rtt_p50_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on serve-http only"},
	{name: "cmd-nlfl.polls_per_job", unit: "count", better: "lower", moves: "latency_p50_ms on serve-http only"},
	{name: "cmd-nlfl.frontdoor_overhead_p50_ms", unit: "ms", better: "lower", moves: "latency_p50_ms, cpu_ms_per_op on serve-http"},
	{name: "cmd-nlfl.rss_kb_per_job", unit: "kB", better: "lower", moves: "peak_rss_mb and, through page-fault cost, latency_p90_ms on serve-http"},
	{name: "cmd-nlfl.accounts_mismatch", unit: "count", better: "lower", moves: "failed (any mismatch fails the run)"},
	{name: "service.submit_p50_us", unit: "us", better: "lower", moves: "latency_p50_ms, ops_per_s on fleet-saturated; <2% of latency on fleet-modeled, so no change there"},
	{name: "service.queue_wait_p50_ms", unit: "ms", better: "lower", moves: "latency_p50_ms, latency_p90_ms on fleet-modeled; rises before throughput saturates"},
	{name: "service.exec_p50_ms", unit: "ms", better: "lower", moves: "latency_p50_ms, latency_p90_ms on fleet-modeled"},
	{name: "service.queue_depth_mean", unit: "count", better: "lower", moves: "latency_p90_ms on fleet-modeled"},
	{name: "service.mutex_wait_us_per_job", unit: "us", better: "lower", moves: "ops_per_s, latency_p90_ms on fleet-saturated; freeing the lock can save more than its self time"},
	{name: "service.allocs_per_job", unit: "count", better: "lower", moves: "cpu_ms_per_op, latency_p90_ms on fleet-saturated"},
	{name: "service.alloc_kb_per_job", unit: "kB", better: "lower", moves: "cpu_ms_per_op, latency_p90_ms on fleet-saturated"},
	{name: "service.gc_cycles_per_s", unit: "1/s", better: "lower", moves: "cpu_ms_per_op, latency_p90_ms on fleet-saturated"},
	{name: "service.rejected_frac", unit: "frac", better: "lower", moves: "failed"},
	{name: "service.reclaimed_cells_per_chaos_job", unit: "count", better: "lower", moves: "latency_p90_ms on fleet-modeled (the slowest re-planned slice worker sets the job's end)"},
	{name: "service.wasted_data_frac", unit: "frac", better: "lower", moves: "latency_p90_ms on fleet-modeled"},
	{name: "service.over_runtime_ratio", unit: "ratio", better: "lower", moves: "latency_p50_ms on fleet-saturated: the fleet's framework overhead over the bare runtime"},
	{name: "capacity.recommend_us", unit: "us", better: "lower", moves: "service.submit_p50_us, then latency_p50_ms on fleet-modeled (tiny)"},
	{name: "capacity.residual_p50", unit: "frac", better: "lower", moves: "none: the model's fidelity, informational"},
	{name: "runtime.plan_het_us", unit: "us", better: "lower", moves: "service.submit_p50_us"},
	{name: "runtime.plan_homk_us", unit: "us", better: "lower", moves: "service.submit_p50_us"},
	{name: "runtime.pool_frac", unit: "frac", better: "higher", moves: "ops_per_s, latency_p50_ms on run-grid, run-lease: per-chunk work can move at most this share"},
	{name: "runtime.prepost_ms", unit: "ms", better: "lower", moves: "ops_per_s, latency_p50_ms on run-grid, run-lease: the dominant lever"},
	{name: "runtime.nonspan_ns_per_chunk", unit: "ns", better: "lower", moves: "ops_per_s on run-grid, run-lease"},
	{name: "runtime.allocs_per_chunk", unit: "count", better: "lower", moves: "cpu_ms_per_op on run-grid, run-lease"},
	{name: "runtime.lease_over_fast_ratio", unit: "ratio", better: "lower", moves: "wall of run-lease over run-grid: the engines should converge, neither may regress"},
	{name: "runtime.lease_over_fast_makespan_ratio", unit: "ratio", better: "lower", moves: "Makespan of run-lease over run-grid"},
	{name: "runtime.over_kernel_ratio", unit: "ratio", better: "lower", moves: "ops_per_s on run-grid"},
	{name: "runtime.scaling_eff", unit: "frac", better: "higher", moves: "informational when nproc <= 2"},
	{name: "matmul.outer_into_cells_per_s", unit: "1/s", better: "higher", moves: "the Makespan share of ops_per_s on run-*; nothing on fleet-modeled, serve-http"},
	{name: "matmul.store_bw_frac", unit: "frac", better: "higher", moves: "as above; the fill is memory-bound, so fewer bytes help and fewer flops do not"},
	{name: "matmul.tiled_gflops_n1024", unit: "GFLOPS", better: "higher", moves: "none: no job path uses GEMM; a baseline for a later kernel issue"},
	{name: "matmul.parallel_tiled_gflops_n1024", unit: "GFLOPS", better: "higher", moves: "none, as above"},
	{name: "trace.check_ns_per_span", unit: "ns", better: "lower", moves: "latency_p50_ms wherever an op audits its trace, small"},
	{name: "experiments.fig4_s", unit: "s", better: "lower", moves: "latency_p50_ms on paper-sweep"},
	{name: "experiments.sort_s", unit: "s", better: "lower", moves: "latency_p50_ms on paper-sweep (the 2^20 sort is the largest share)"},
	{name: "experiments.nonlinear_s", unit: "s", better: "lower", moves: "latency_p50_ms on paper-sweep"},
	{name: "experiments.faults_s", unit: "s", better: "lower", moves: "latency_p50_ms on paper-sweep"},
	{name: "partition.perisum_us_p100", unit: "us", better: "lower", moves: "experiments.fig4_s; runtime.plan_het_us"},
	{name: "outer.commhomk_us_p100", unit: "us", better: "lower", moves: "experiments.fig4_s; runtime.plan_homk_us"},
	{name: "dessim.demand_driven_us_per_task", unit: "us", better: "lower", moves: "experiments.nonlinear_s, experiments.faults_s"},
	{name: "samplesort.elems_per_s_n1m", unit: "1/s", better: "higher", moves: "experiments.sort_s"},
	{name: "loadgen.lag_p99_ms", unit: "ms", better: "lower", moves: "none: validity of an open-loop run"},
	{name: "trace_overhead_frac", unit: "frac", better: "lower", moves: "none: traced over untraced latency_p50_ms, minus 1"},
	{name: "trace.selfsum_err_frac", unit: "frac", better: "lower", moves: "none: largest per-op gap between the layers' times and the op's latency"},
	{name: "proc.peak_rss_mb", unit: "MB", better: "lower", moves: "none: VmHWM of the harness process when the run ends, its probes' arrays included"},
	{name: "proc.build_s", unit: "s", better: "lower", moves: "none: go build ./cmd/nlfl, kept out of setup_s"},
	{name: "proc.setup_first_s", unit: "s", better: "lower", moves: "setup_s: the first, cold set-up of the process (one-off initialisation included)"},
	{name: "latency_p99_ms", unit: "ms", better: "lower", moves: "none: recorded where at least ten samples lie beyond it"},
	{name: "failed_frac", unit: "frac", better: "lower", moves: "failed"},
}

// workloadDefs name the six workloads and why each exists.
var workloadDefs = []struct{ name, why string }{
	{"paper-sweep", "The paper's own evaluation (nlfl all): only the analytic and simulated layers work, the measured layers none."},
	{"run-grid", "Fault-free runtime.Run fast path on 1024 small chunks: per-chunk engine cost and Run's pre/post validation dominate, the kernel is a minority."},
	{"run-lease", "Same inputs through the lease/first-writer-wins engine with zero faults: a gain for one engine that costs the other must show."},
	{"fleet-saturated", "Closed-loop jobs on an unthrottled in-process Fleet: admission, planning, allocation and the fleet mutex under real contention."},
	{"fleet-modeled", "Open-loop Poisson jobs paced by token buckets and the booked one-port link: the control on which CPU-side optimisations predict no change."},
	{"serve-http", "Open-loop jobs against a real nlfl serve subprocess: JSON, admission, status polling and the never-evicted job table dominate; the only process boundary."},
}

// runSeconds is how long one run measures by default and in BENCHMARK.json.
const runSeconds = 15
