package bench

import (
	"context"
	"fmt"
	"math"
	goruntime "runtime"

	"nlfl/internal/platform"
	"nlfl/internal/results"
	nrt "nlfl/internal/runtime"
	"nlfl/internal/stats"
	"nlfl/internal/trace"
)

// Topology sweep envelope. The work rate is pinned (cfg.WorkPerSecond is
// ignored) because the sweep's subject is the comm/compute ratio: the
// crossover gates below are calibrated arithmetic over these exact
// rates, and letting the caller move one side of the ratio would turn
// them into coin flips.
const (
	topoN    = 128
	topoRate = 2e5
	// topoTheta is the het/hom makespan ratio that counts as a het win:
	// strict enough that a win needs the link to matter.
	topoTheta = 0.7
)

// topoSpeeds places the one fast worker at the far end of the chain, so
// hop-by-hop forwarding drags every byte it needs across all six hops —
// the configuration where a star and a chain of the same nominal
// bandwidth disagree the most.
func topoSpeeds() []float64 { return []float64{1, 1, 1, 1, 1, 11} }

// topoBandwidths spans hard link-bound (2e3) and transitional (2e4)
// regimes for topoN=128 at topoRate. Both keep the network constrained
// on purpose: there the makespans are dominated by modeled transfer
// time. Compute-bound bandwidths are excluded — once the network stops
// mattering the ratio measured scheduler noise on the wall clock
// (0.50–0.69 run to run) and no threshold separated the topologies.
func topoBandwidths() []float64 { return []float64{2e3, 2e4} }

// topoKinds lists the swept network shapes.
func topoKinds() []string { return []string{"star", "chain", "two-source"} }

func topoFor(kind string, workers int, bw float64) nrt.Topology {
	switch kind {
	case "star":
		return nrt.Star{Aggregate: bw, Workers: workers}
	case "chain":
		return nrt.UniformChain(workers, bw)
	case "two-source":
		return nrt.SplitTwoSource(workers, bw, bw)
	}
	panic("bench: unknown topology " + kind)
}

// RunTopologySweep executes the strategy set over pluggable network
// topologies — star, uniform daisy-chain, two-source — across the
// bandwidth grid, audits every trace with the per-edge capacity and
// volume invariants, and measures where the het-vs-hom crossover sits
// per topology: the largest swept bandwidth at which het's makespan
// stays below θ·hom. The headline gate is the shift: the star must show
// a crossover (het wins once its aggregate port is tight) and the chain
// must not (hop-serialized forwarding re-taxes het's compact rectangles
// until the volume advantage stops paying). Every run is on the
// runtime's virtual clock, so the sweep — makespans, relay volumes and
// crossovers — is reproducible from the seed. A cancelled ctx aborts
// the in-flight run and stops the sweep.
func RunTopologySweep(ctx context.Context, cfg Config) (results.TopologyBenchFile, error) {
	file := results.TopologyBenchFile{
		Schema:             results.BenchTopologySchema,
		Seed:               cfg.Seed,
		WorkPerSecond:      topoRate,
		GoVersion:          goruntime.Version(),
		CrossoverThreshold: topoTheta,
		Crossovers:         map[string]float64{},
	}
	r := stats.NewRNG(cfg.Seed)
	a := stats.SampleN(stats.Uniform{Lo: -1, Hi: 1}, r, topoN)
	b := stats.SampleN(stats.Uniform{Lo: -1, Hi: 1}, r, topoN)
	speeds := topoSpeeds()
	pl, err := platform.FromSpeeds(speeds)
	if err != nil {
		return file, err
	}
	p := len(speeds)

	for _, kind := range topoKinds() {
		file.Crossovers[kind] = 0
		for _, bw := range topoBandwidths() {
			if err := ctx.Err(); err != nil {
				return file, err
			}
			makespans := map[string]float64{}
			for _, strat := range []string{"hom", "hom/k", "het"} {
				var plan *nrt.StrategyPlan
				var err error
				switch strat {
				case "hom":
					plan, err = nrt.PlanHom(pl, topoN)
				case "hom/k":
					plan, err = nrt.PlanHomK(pl, topoN, 0.01, 0)
				default:
					plan, err = nrt.PlanHet(pl, topoN)
				}
				if err != nil {
					return file, fmt.Errorf("bench: %s/%s plan: %w", kind, strat, err)
				}
				rep, err := nrt.RunContext(ctx, plan, a, b, nrt.Options{
					Speeds:        speeds,
					WorkPerSecond: topoRate,
					// As in the link sweep: a small burst keeps link waits
					// from banking compute credit.
					Burst:       topoRate * 0.0001,
					Topology:    topoFor(kind, p, bw),
					Prefetch:    true,
					VerifyEvery: 1009,
					// The crossovers and the chain's relay volume depend
					// on which worker claims each ownerless chunk; on the
					// virtual clock that hand-out is the same every run.
					Virtual: true,
				})
				if err != nil {
					return file, fmt.Errorf("bench: %s/%s bw=%g: %w", kind, plan.Strategy, bw, err)
				}
				if vs := trace.Check(rep.Trace, rep.Expect(homTolerance)); len(vs) > 0 {
					return file, fmt.Errorf("bench: %s/%s bw=%g trace violations: %v",
						kind, plan.Strategy, bw, trace.Must(vs))
				}
				relErr := math.Abs(rep.DataVolume-rep.Predicted) / rep.Predicted
				tol := homTolerance
				if plan.Strategy == "het" {
					tol = hetTolerance
				}
				if relErr > tol {
					return file, fmt.Errorf("bench: %s/%s bw=%g: measured volume %v off the closed form %v by %.4f",
						kind, plan.Strategy, bw, rep.DataVolume, rep.Predicted, relErr)
				}
				edges := make([]results.TopologyEdge, len(rep.Edges))
				for i, e := range rep.Edges {
					edges[i] = results.TopologyEdge{
						Name: e.Name, Capacity: e.Capacity,
						Volume: e.Volume, Utilization: e.Utilization,
					}
				}
				makespans[plan.Strategy] = rep.Makespan
				file.Entries = append(file.Entries, results.TopologyBenchEntry{
					Platform: "deep-fast-p6", Speeds: speeds,
					Topology: kind, Strategy: plan.Strategy, N: topoN, Bandwidth: bw,
					MeasuredVolume:  rep.DataVolume,
					PredictedVolume: rep.Predicted,
					RelError:        relErr,
					RelayVolume:     rep.RelayVolume,
					Makespan:        rep.Makespan,
					CommTime:        rep.CommTime,
					OverlapFraction: rep.OverlapFraction,
					Edges:           edges,
					Violations:      0,
				})
			}
			if makespans["het"] < topoTheta*makespans["hom"] && bw > file.Crossovers[kind] {
				file.Crossovers[kind] = bw
			}
		}
	}
	// The crossover-shift gate, the sweep's reason to exist.
	if file.Crossovers["star"] <= 0 {
		return file, fmt.Errorf("bench: het never beat hom by %gx on the star — no crossover to shift", topoTheta)
	}
	if file.Crossovers["chain"] != 0 {
		return file, fmt.Errorf("bench: het beat hom by %gx on the chain at bw=%g — hop forwarding failed to erase the volume advantage",
			topoTheta, file.Crossovers["chain"])
	}
	return file, nil
}

// ValidateTopology is the schema check for a BENCH_topology payload:
// right schema id, non-empty entries, finite fields in range, zero
// violations, volumes on the closed forms, relay traffic exactly where
// hop forwarding exists (chains, nowhere else) with monotone
// nonincreasing chain edge volumes, the recorded crossovers consistent
// with the entries, and the headline shift — a star crossover, no chain
// crossover — present. The two-source sanity gate rides along: with a
// second independent source, hom at the tightest bandwidth must beat
// the star's hom, which funnels everything through one port.
func ValidateTopology(f results.TopologyBenchFile) error {
	if f.Schema != results.BenchTopologySchema {
		return invalid("schema %q, want %q", f.Schema, results.BenchTopologySchema)
	}
	if len(f.Entries) == 0 {
		return invalid("no entries")
	}
	if !finite(f.WorkPerSecond) || f.WorkPerSecond <= 0 {
		return invalid("non-positive work rate %v", f.WorkPerSecond)
	}
	if !finite(f.CrossoverThreshold) || f.CrossoverThreshold <= 0 || f.CrossoverThreshold >= 1 {
		return invalid("crossover threshold %v outside (0,1)", f.CrossoverThreshold)
	}
	minBW := f.Entries[0].Bandwidth
	for _, e := range f.Entries {
		if e.Bandwidth < minBW {
			minBW = e.Bandwidth
		}
	}
	type key struct {
		topo string
		bw   float64
	}
	makespans := map[key]map[string]float64{}
	for i, e := range f.Entries {
		id := fmt.Sprintf("entry %d (%s/%s bw=%g)", i, e.Topology, e.Strategy, e.Bandwidth)
		if e.Platform == "" || e.Topology == "" || e.Strategy == "" || e.N <= 0 {
			return invalid("%s: missing identity fields", id)
		}
		for _, v := range []struct {
			name  string
			value float64
		}{
			{"bandwidth", e.Bandwidth},
			{"measuredVolume", e.MeasuredVolume},
			{"predictedVolume", e.PredictedVolume},
			{"relError", e.RelError},
			{"relayVolume", e.RelayVolume},
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
		if e.Violations != 0 {
			return invalid("%s: %d invariant violations", id, e.Violations)
		}
		if len(e.Edges) == 0 {
			return invalid("%s: no per-edge rows", id)
		}
		edgeSum := 0.0
		for j, ed := range e.Edges {
			if ed.Name == "" || !finite(ed.Capacity) || ed.Capacity < 0 {
				return invalid("%s: edge %d malformed", id, j)
			}
			if !finite(ed.Volume) || ed.Volume < 0 {
				return invalid("%s: edge %s volume %v", id, ed.Name, ed.Volume)
			}
			if !finite(ed.Utilization) || ed.Utilization < 0 || ed.Utilization > 1 {
				return invalid("%s: edge %s utilization %v outside [0,1]", id, ed.Name, ed.Utilization)
			}
			if e.Topology == "chain" && j > 0 && ed.Volume > e.Edges[j-1].Volume {
				return invalid("%s: chain edge volumes not monotone (%s carries %v > %s's %v)",
					id, ed.Name, ed.Volume, e.Edges[j-1].Name, e.Edges[j-1].Volume)
			}
			edgeSum += ed.Volume
		}
		if e.Topology == "chain" {
			if e.RelayVolume <= 0 {
				return invalid("%s: chain run shipped no relay traffic", id)
			}
			if d := edgeSum - (e.MeasuredVolume + e.RelayVolume); math.Abs(d) > 1e-6*(1+edgeSum) {
				return invalid("%s: edge ledger leaks (Σ %v ≠ delivered %v + relayed %v)",
					id, edgeSum, e.MeasuredVolume, e.RelayVolume)
			}
		} else if e.RelayVolume != 0 {
			return invalid("%s: single-hop topology recorded relay volume %v", id, e.RelayVolume)
		}
		k := key{e.Topology, e.Bandwidth}
		if makespans[k] == nil {
			makespans[k] = map[string]float64{}
		}
		makespans[k][e.Strategy] = e.Makespan
	}

	// Recompute the crossovers from the entries and require agreement.
	recomputed := map[string]float64{}
	for k, ms := range makespans {
		if _, ok := recomputed[k.topo]; !ok {
			recomputed[k.topo] = 0
		}
		het, hasHet := ms["het"]
		hom, hasHom := ms["hom"]
		if hasHet && hasHom && het < f.CrossoverThreshold*hom && k.bw > recomputed[k.topo] {
			recomputed[k.topo] = k.bw
		}
	}
	for topo, bw := range recomputed {
		if got, ok := f.Crossovers[topo]; !ok || got != bw {
			return invalid("crossovers[%s]=%v disagrees with entries (%v)", topo, f.Crossovers[topo], bw)
		}
	}
	if f.Crossovers["star"] <= 0 {
		return invalid("no star crossover: het never won by the threshold")
	}
	if f.Crossovers["chain"] != 0 {
		return invalid("chain crossover at bw=%v: hop forwarding should have erased the het advantage", f.Crossovers["chain"])
	}
	ts, hasTS := makespans[key{"two-source", minBW}]["hom"]
	st, hasST := makespans[key{"star", minBW}]["hom"]
	if hasTS && hasST && ts >= st {
		return invalid("two-source hom makespan %v not below star's %v at bw=%v despite a second source", ts, st, minBW)
	}
	return nil
}
