package bench

import (
	"context"
	"fmt"
	goruntime "runtime"

	"nlfl/internal/platform"
	"nlfl/internal/results"
	nrt "nlfl/internal/runtime"
	"nlfl/internal/stats"
	"nlfl/internal/trace"
)

// linkN is the problem size of the bandwidth sweep.
const linkN = 128

// linkBandwidths are the swept master-link rates in elements/second.
// The grid brackets the regime change for linkN=128 at the default work
// rate: at 2e4 the link is the clear bottleneck (hom's 1024 elements
// take ~51 ms against sub-ms of aggregate compute), at 2e5 comm and
// compute are comparable, at 2e6 the runs are compute-bound and the
// strategies converge — the measured version of the paper's Figure-2
// volume/makespan trade-off.
var linkBandwidths = []float64{2e4, 2e5, 2e6}

// hetPlatforms are the speed profiles of the link and chaos sweeps:
// heterogeneous ones, because that is where Comm_het < Comm_hom, the
// constrained link should turn the volume gap into a makespan gap, and
// a crash makes PERI-SUM re-plan uneven rectangles.
var hetPlatforms = []benchPlatform{
	{"het-1357-p4", []float64{1, 3, 5, 7}},
	{"het-1224-p4", []float64{1, 2, 2, 4}},
}

// RunLinkSweep executes the three distribution strategies under a
// bandwidth-modeled master link (double-buffered prefetch on) across the
// bandwidth grid on the virtual clock and audits every trace — the
// link-capacity invariant included; judgeLink gates the paper's
// headline claim. Any violation is an error, not a data point. A
// cancelled ctx aborts the in-flight run and stops the sweep.
func RunLinkSweep(ctx context.Context, cfg Config) (results.LinkBenchFile, error) {
	file := results.LinkBenchFile{
		Schema:        results.BenchLinkSchema,
		Seed:          cfg.Seed,
		WorkPerSecond: workPerSecond,
		GoVersion:     goruntime.Version(),
	}
	r := stats.NewRNG(cfg.Seed)
	a := stats.SampleN(stats.Uniform{Lo: -1, Hi: 1}, r, linkN)
	b := stats.SampleN(stats.Uniform{Lo: -1, Hi: 1}, r, linkN)
	for _, bp := range hetPlatforms {
		pl, err := platform.FromSpeeds(bp.speeds)
		if err != nil {
			return file, err
		}
		for _, bw := range linkBandwidths {
			if err := ctx.Err(); err != nil {
				return file, err
			}
			for _, mk := range []struct {
				name string
				plan func() (*nrt.StrategyPlan, error)
			}{
				{"hom", func() (*nrt.StrategyPlan, error) { return nrt.PlanHom(pl, linkN) }},
				{"hom/k", func() (*nrt.StrategyPlan, error) { return nrt.PlanHomK(pl, linkN, 0.01, 0) }},
				{"het", func() (*nrt.StrategyPlan, error) { return nrt.PlanHet(pl, linkN) }},
			} {
				plan, err := mk.plan()
				if err != nil {
					return file, fmt.Errorf("bench: %s/%s plan: %w", bp.name, mk.name, err)
				}
				rep, err := nrt.RunContext(ctx, plan, a, b, nrt.Options{
					Speeds:        bp.speeds,
					WorkPerSecond: workPerSecond,
					// A small burst keeps link waits from banking
					// compute credit, so makespans reflect the modeled
					// contention instead of hiding it in the throttle.
					Burst:       workPerSecond * 0.0001,
					Link:        nrt.Link{ElemsPerSecond: bw},
					Prefetch:    true,
					VerifyEvery: 1009,
					Virtual:     true,
				})
				if err != nil {
					return file, fmt.Errorf("bench: %s/%s bw=%g: %w", bp.name, plan.Strategy, bw, err)
				}
				if vs := trace.Check(rep.Trace, rep.Expect(volumeTolerance)); len(vs) > 0 {
					return file, fmt.Errorf("bench: %s/%s bw=%g trace violations: %v",
						bp.name, plan.Strategy, bw, trace.Must(vs))
				}
				file.Entries = append(file.Entries, results.LinkBenchEntry{
					Platform: bp.name, Speeds: bp.speeds,
					Strategy: plan.Strategy, N: linkN, Bandwidth: bw,
					MeasuredVolume:  rep.DataVolume,
					PredictedVolume: rep.Predicted,
					Makespan:        rep.Makespan,
					CommTime:        rep.CommTime,
					OverlapFraction: rep.OverlapFraction,
					LinkUtilization: rep.LinkUtilization,
				})
			}
		}
	}
	return file, nil
}

// judgeLink checks BENCH_link's claim, the no-free-lunch gate: on every
// platform at the most constrained bandwidth, where the link is the
// bottleneck, the lower-volume het plan finishes strictly before hom.
func judgeLink(f results.LinkBenchFile) error {
	tightest := linkBandwidths[0]
	for _, bp := range hetPlatforms {
		makespans := map[string]float64{}
		for _, e := range f.Entries {
			if e.Platform == bp.name && e.Bandwidth == tightest {
				makespans[e.Strategy] = e.Makespan
			}
		}
		het, okHet := makespans["het"]
		hom, okHom := makespans["hom"]
		if !okHet || !okHom {
			return invalid("%s bw=%g: no het/hom pair to compare", bp.name, tightest)
		}
		if het >= hom {
			return invalid("%s bw=%g: het makespan %.4fs does not beat hom %.4fs despite lower volume",
				bp.name, tightest, het, hom)
		}
	}
	return nil
}
