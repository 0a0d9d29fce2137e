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

// Topology sweep envelope. The work rate is pinned because the sweep's
// subject is the comm/compute ratio: the crossover gates below are
// calibrated arithmetic over these exact rates.
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
// stays below θ·hom; judgeTopology gates the shift. Every run is on the
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
				if vs := trace.Check(rep.Trace, rep.Expect(volumeTolerance)); len(vs) > 0 {
					return file, fmt.Errorf("bench: %s/%s bw=%g trace violations: %v",
						kind, plan.Strategy, bw, trace.Must(vs))
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
					RelError:        math.Abs(rep.DataVolume-rep.Predicted) / rep.Predicted,
					RelayVolume:     rep.RelayVolume,
					Makespan:        rep.Makespan,
					CommTime:        rep.CommTime,
					OverlapFraction: rep.OverlapFraction,
					Edges:           edges,
				})
			}
			if makespans["het"] < topoTheta*makespans["hom"] && bw > file.Crossovers[kind] {
				file.Crossovers[kind] = bw
			}
		}
	}
	return file, nil
}

// judgeTopology checks the claims of a BENCH_topology payload that no
// run checks itself. The headline gate is the crossover shift: the star
// must show a crossover (het wins once its aggregate port is tight) and
// the chain must not (hop-serialized forwarding re-taxes het's compact
// rectangles until the volume advantage stops paying). Every measured
// volume lies within volumeTolerance of its closed form; relay traffic
// flows exactly where hop forwarding exists (chains, nowhere else);
// chain edge volumes are nonincreasing away from the master and sum to
// the delivered plus the relayed volume; and — the two-source sanity
// gate — hom at the tightest bandwidth is faster with a second
// independent source than on the star, which funnels everything through
// one port.
func judgeTopology(f results.TopologyBenchFile) error {
	if f.Crossovers["star"] <= 0 {
		return invalid("het never beat hom by %gx on the star — no crossover to shift", f.CrossoverThreshold)
	}
	if bw := f.Crossovers["chain"]; bw != 0 {
		return invalid("het beat hom by %gx on the chain at bw=%g — hop forwarding failed to erase the volume advantage",
			f.CrossoverThreshold, bw)
	}
	tightest := topoBandwidths()[0]
	homMakespan := map[string]float64{} // topology → hom makespan at the tightest bandwidth
	for i, e := range f.Entries {
		id := fmt.Sprintf("entry %d (%s/%s bw=%g)", i, e.Topology, e.Strategy, e.Bandwidth)
		if !(e.RelError <= volumeTolerance) {
			return invalid("%s: measured volume %v off the closed form %v by %.4f",
				id, e.MeasuredVolume, e.PredictedVolume, e.RelError)
		}
		if e.Bandwidth == tightest && e.Strategy == "hom" {
			homMakespan[e.Topology] = e.Makespan
		}
		if e.Topology != "chain" {
			if e.RelayVolume != 0 {
				return invalid("%s: single-hop topology recorded relay volume %v", id, e.RelayVolume)
			}
			continue
		}
		if e.RelayVolume <= 0 {
			return invalid("%s: chain run shipped no relay traffic", id)
		}
		edgeSum := 0.0
		for j, ed := range e.Edges {
			if j > 0 && ed.Volume > e.Edges[j-1].Volume {
				return invalid("%s: chain edge volumes not monotone (%s carries %v > %s's %v)",
					id, ed.Name, ed.Volume, e.Edges[j-1].Name, e.Edges[j-1].Volume)
			}
			edgeSum += ed.Volume
		}
		if d := edgeSum - (e.MeasuredVolume + e.RelayVolume); math.Abs(d) > 1e-6*(1+edgeSum) {
			return invalid("%s: edge ledger leaks (Σ %v ≠ delivered %v + relayed %v)",
				id, edgeSum, e.MeasuredVolume, e.RelayVolume)
		}
	}
	if ts, st := homMakespan["two-source"], homMakespan["star"]; ts >= st {
		return invalid("two-source hom makespan %v not below star's %v at bw=%v despite a second source", ts, st, tightest)
	}
	return nil
}
