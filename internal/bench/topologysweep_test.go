package bench

import (
	"errors"
	"testing"

	"nlfl/internal/results"
)

// goodTopologyFile builds a minimal BENCH_topology payload that passes
// the judge: a crossover on the star and none on the chain, relay
// traffic only on the chain, whose edge volumes fall away from the
// master and sum to delivered plus relayed, and a second source that
// makes two-source hom faster than star hom at the tightest bandwidth.
func goodTopologyFile() results.TopologyBenchFile {
	bw := topoBandwidths()[0]
	star := func(strat string, mk float64) results.TopologyBenchEntry {
		return results.TopologyBenchEntry{
			Topology: "star", Strategy: strat, Bandwidth: bw, MeasuredVolume: 32, Makespan: mk,
			Edges: []results.TopologyEdge{{Name: "master-port", Capacity: bw, Volume: 32}},
		}
	}
	chain := func(strat string, mk float64) results.TopologyBenchEntry {
		return results.TopologyBenchEntry{
			Topology: "chain", Strategy: strat, Bandwidth: bw, MeasuredVolume: 32,
			RelayVolume: 12, Makespan: mk,
			Edges: []results.TopologyEdge{
				{Name: "hop-0", Capacity: bw, Volume: 32},
				{Name: "hop-1", Capacity: bw, Volume: 12},
			},
		}
	}
	twoSource := func(strat string, mk float64) results.TopologyBenchEntry {
		return results.TopologyBenchEntry{
			Topology: "two-source", Strategy: strat, Bandwidth: bw, MeasuredVolume: 32, Makespan: mk,
			Edges: []results.TopologyEdge{
				{Name: "source-0", Capacity: bw, Volume: 20},
				{Name: "source-1", Capacity: bw, Volume: 12},
			},
		}
	}
	return results.TopologyBenchFile{
		Crossovers: map[string]float64{"star": bw, "chain": 0, "two-source": 0},
		Entries: []results.TopologyBenchEntry{
			star("hom", 0.2), star("het", 0.1),
			chain("hom", 0.2), chain("het", 0.19),
			twoSource("hom", 0.15), twoSource("het", 0.14),
		},
	}
}

// TestValidateTopologyRejectsBrokenFiles: a mutation that breaks one of
// the judge's claims must fail judgeTopology, and any other edit to the
// committed file must fail ValidateFiles. Entries 0–2 of the committed
// file are star hom, hom/k and het at the tightest bandwidth; entries
// 6–8 the same on the chain.
func TestValidateTopologyRejectsBrokenFiles(t *testing.T) {
	if err := judgeTopology(goodTopologyFile()); err != nil {
		t.Fatalf("well-formed topology file rejected: %v", err)
	}
	for name, mutate := range map[string]func(*results.TopologyBenchFile){
		"chain-no-relay": func(f *results.TopologyBenchFile) { f.Entries[3].RelayVolume = 0 },
		"chain-nonmonotone": func(f *results.TopologyBenchFile) {
			// Also keep the ledger closed so only monotonicity trips.
			f.Entries[3].Edges[0].Volume = 12
			f.Entries[3].Edges[1].Volume = 32
		},
		"chain-ledger-leak": func(f *results.TopologyBenchFile) { f.Entries[3].Edges[1].Volume = 20 },
		"star-with-relay":   func(f *results.TopologyBenchFile) { f.Entries[0].RelayVolume = 5 },
		"two-source-not-faster": func(f *results.TopologyBenchFile) {
			f.Entries[4].Makespan = 0.25 // behind star hom despite two sources
		},
		"1%-gate": func(f *results.TopologyBenchFile) { f.Entries[1].RelError = 0.02 },
	} {
		f := goodTopologyFile()
		mutate(&f)
		if err := judgeTopology(f); !errors.Is(err, ErrInvalidBench) {
			t.Errorf("topology %s: broken payload passed the judge: %v", name, err)
		}
	}
	rejectsCopies(t, "topology", map[string]func(*results.TopologyBenchFile){
		"wrong-schema":    func(f *results.TopologyBenchFile) { f.Schema = "wrong" },
		"no-entries":      func(f *results.TopologyBenchFile) { f.Entries = nil },
		"bad-threshold":   func(f *results.TopologyBenchFile) { f.CrossoverThreshold = 1.2 },
		"zero-bandwidth":  func(f *results.TopologyBenchFile) { f.Entries[0].Bandwidth = 0 },
		"overlap-above-1": func(f *results.TopologyBenchFile) { f.Entries[0].OverlapFraction = 1.5 },
		"violations":      func(f *results.TopologyBenchFile) { f.Entries[0].Violations = 1 },
		"no-edge-rows":    func(f *results.TopologyBenchFile) { f.Entries[0].Edges = nil },
		"util-above-1":    func(f *results.TopologyBenchFile) { f.Entries[0].Edges[0].Utilization = 2 },
		"crossover-mismatch": func(f *results.TopologyBenchFile) {
			f.Crossovers["star"] = 2 * f.Crossovers["star"]
		},
	})
	topology := mustLookup(t, "topology")
	rejects(t, func() results.TopologyBenchFile {
		return committedPayload[results.TopologyBenchFile](t, topology)
	}, judgeTopology, map[string]func(*results.TopologyBenchFile){
		"no-star-crossover": func(f *results.TopologyBenchFile) {
			f.Entries[2].Makespan = f.Entries[0].Makespan // het no longer wins at the tightest bandwidth
			f.Crossovers["star"] = 0
		},
		"chain-crossover-appears": func(f *results.TopologyBenchFile) {
			f.Entries[8].Makespan = 0.5 * f.Entries[6].Makespan // chain het suddenly wins
			f.Crossovers["chain"] = f.Entries[6].Bandwidth
		},
	})
}
