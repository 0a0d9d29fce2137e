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
// bandwidth grid on the virtual clock, audits every trace — the
// link-capacity invariant included — and gates the paper's headline
// claim: at the most constrained bandwidth on a heterogeneous platform,
// the lower-volume het plan must finish strictly faster than hom. Any violation or a
// het-no-faster outcome is an error, not a data point. A cancelled ctx
// aborts the in-flight run and stops the sweep.
func RunLinkSweep(ctx context.Context, cfg Config) (results.LinkBenchFile, error) {
	rate := cfg.WorkPerSecond
	if rate <= 0 {
		rate = 2e6
	}
	file := results.LinkBenchFile{
		Schema:        results.BenchLinkSchema,
		Seed:          cfg.Seed,
		WorkPerSecond: rate,
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
			makespans := map[string]float64{}
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
					WorkPerSecond: rate,
					// A small burst keeps link waits from banking
					// compute credit, so makespans reflect the modeled
					// contention instead of hiding it in the throttle.
					Burst:       rate * 0.0001,
					Link:        nrt.Link{ElemsPerSecond: bw},
					Prefetch:    true,
					VerifyEvery: 1009,
					Virtual:     true,
				})
				if err != nil {
					return file, fmt.Errorf("bench: %s/%s bw=%g: %w", bp.name, plan.Strategy, bw, err)
				}
				if vs := trace.Check(rep.Trace, rep.Expect(homTolerance)); len(vs) > 0 {
					return file, fmt.Errorf("bench: %s/%s bw=%g trace violations: %v",
						bp.name, plan.Strategy, bw, trace.Must(vs))
				}
				makespans[plan.Strategy] = rep.Makespan
				file.Entries = append(file.Entries, results.LinkBenchEntry{
					Platform: bp.name, Speeds: bp.speeds,
					Strategy: plan.Strategy, N: linkN, Bandwidth: bw,
					MeasuredVolume:  rep.DataVolume,
					PredictedVolume: rep.Predicted,
					Makespan:        rep.Makespan,
					CommTime:        rep.CommTime,
					OverlapFraction: rep.OverlapFraction,
					LinkUtilization: rep.LinkUtilization,
					Violations:      0,
				})
			}
			// The no-free-lunch gate: when the link is the bottleneck,
			// shipping less must mean finishing sooner.
			if bw == linkBandwidths[0] {
				if het, hom := makespans["het"], makespans["hom"]; het >= hom {
					return file, fmt.Errorf(
						"bench: %s bw=%g: het makespan %.4fs does not beat hom %.4fs despite lower volume",
						bp.name, bw, het, hom)
				}
			}
		}
	}
	return file, nil
}

// ValidateLink is the schema check for a BENCH_link payload: right
// schema id, non-empty entries, finite positive fields, overlap and
// utilization fractions in range, zero violations, and at the lowest
// swept bandwidth at least one platform with both het and hom entries and,
// on every such platform, the het makespan strictly below hom's.
func ValidateLink(f results.LinkBenchFile) error {
	if f.Schema != results.BenchLinkSchema {
		return invalid("schema %q, want %q", f.Schema, results.BenchLinkSchema)
	}
	if len(f.Entries) == 0 {
		return invalid("no entries")
	}
	if !finite(f.WorkPerSecond) || f.WorkPerSecond <= 0 {
		return invalid("non-positive work rate %v", f.WorkPerSecond)
	}
	minBW := f.Entries[0].Bandwidth
	for _, e := range f.Entries {
		if e.Bandwidth < minBW {
			minBW = e.Bandwidth
		}
	}
	type key struct {
		platform string
		bw       float64
	}
	makespans := map[key]map[string]float64{}
	for i, e := range f.Entries {
		id := fmt.Sprintf("entry %d (%s/%s bw=%g)", i, e.Platform, e.Strategy, e.Bandwidth)
		if e.Platform == "" || e.Strategy == "" || e.N <= 0 {
			return invalid("%s: missing identity fields", id)
		}
		for _, v := range []struct {
			name  string
			value float64
		}{
			{"bandwidth", e.Bandwidth},
			{"measuredVolume", e.MeasuredVolume},
			{"predictedVolume", e.PredictedVolume},
			{"makespan", e.Makespan},
			{"commTime", e.CommTime},
			{"overlapFraction", e.OverlapFraction},
		} {
			if !finite(v.value) || v.value < 0 {
				return invalid("%s: negative or non-finite %s %v", id, v.name, v.value)
			}
		}
		if e.Bandwidth <= 0 || e.MeasuredVolume <= 0 || e.Makespan <= 0 {
			return invalid("%s: zero bandwidth, volume or makespan", id)
		}
		if e.OverlapFraction > 1 {
			return invalid("%s: overlap fraction %v above 1", id, e.OverlapFraction)
		}
		for w, u := range e.LinkUtilization {
			if !finite(u) || u < 0 || u > 1 {
				return invalid("%s: worker %d link utilization %v outside [0,1]", id, w, u)
			}
		}
		if e.Violations != 0 {
			return invalid("%s: %d invariant violations", id, e.Violations)
		}
		k := key{e.Platform, e.Bandwidth}
		if makespans[k] == nil {
			makespans[k] = map[string]float64{}
		}
		makespans[k][e.Strategy] = e.Makespan
	}
	pairs := 0
	for k, ms := range makespans {
		if k.bw != minBW {
			continue
		}
		het, hasHet := ms["het"]
		hom, hasHom := ms["hom"]
		if !hasHet || !hasHom {
			continue
		}
		pairs++
		if het >= hom {
			return invalid("%s bw=%g: het makespan %v not below hom %v at the constrained bandwidth",
				k.platform, k.bw, het, hom)
		}
	}
	if pairs == 0 {
		return invalid("no platform ran both het and hom at the constrained bandwidth %g", minBW)
	}
	return nil
}
