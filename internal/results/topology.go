package results

// BenchTopologySchema identifies the BENCH_topology.json payload; bumped
// on breaking field changes.
const BenchTopologySchema = "nlfl/bench-topology/v2"

// TopologyEdge is one network edge's measured row within a topology
// bench entry.
type TopologyEdge struct {
	// Name labels the edge ("master-port", "hop-2", "source-1", ...).
	Name string `json:"name"`
	// Capacity is the edge's modeled rate in elements/second.
	Capacity float64 `json:"capacity"`
	// Volume is the elements that crossed the edge — deliveries plus
	// hop-forwarded relay traffic.
	Volume float64 `json:"volume"`
	// Utilization is the edge's busy fraction of the makespan.
	Utilization float64 `json:"utilization"`
}

// TopologyBenchEntry is one strategy execution over one topology at one
// swept bandwidth.
type TopologyBenchEntry struct {
	// Platform names the speed profile, Speeds lists it.
	Platform string    `json:"platform"`
	Speeds   []float64 `json:"speeds"`
	// Topology is "star", "chain" or "two-source".
	Topology string `json:"topology"`
	// Strategy is "hom", "hom/k" or "het"; N the vector length.
	Strategy string `json:"strategy"`
	N        int    `json:"n"`
	// Bandwidth is the per-edge rate the topology was built from: the
	// star's aggregate, each chain hop's rate, each source link's rate.
	Bandwidth float64 `json:"bandwidth"`
	// MeasuredVolume is the elements delivered to workers, PredictedVolume
	// the strategy's closed form, RelError their relative disagreement.
	MeasuredVolume  float64 `json:"measuredVolume"`
	PredictedVolume float64 `json:"predictedVolume"`
	RelError        float64 `json:"relError"`
	// RelayVolume is the extra traffic hop-forwarding puts on interior
	// edges — zero for single-hop topologies, the chain's hidden cost.
	RelayVolume float64 `json:"relayVolume"`
	// Makespan is the run's modeled seconds on the virtual clock;
	// CommTime the summed modeled delivery seconds across workers.
	Makespan float64 `json:"makespan"`
	CommTime float64 `json:"commTime"`
	// OverlapFraction is the share of comm time hidden under compute.
	OverlapFraction float64 `json:"overlapFraction"`
	// Edges are the per-edge measured rows.
	Edges []TopologyEdge `json:"edges"`
	// Violations counts invariant-oracle findings — the per-edge capacity
	// sweep and volume ledger included; 0 in any valid file.
	Violations int `json:"violations"`
}

// TopologyBenchFile is the BENCH_topology.json payload: the same
// strategy set swept across star, daisy-chain and two-source networks,
// locating how hop-limited bandwidth shifts the het-vs-hom crossover.
type TopologyBenchFile struct {
	Schema string `json:"schema"`
	Seed   int64  `json:"seed"`
	// WorkPerSecond is the token-bucket rate scale of every run.
	WorkPerSecond float64 `json:"workPerSecond"`
	GoVersion     string  `json:"goVersion"`
	// CrossoverThreshold is the het/hom makespan ratio θ defining a win.
	CrossoverThreshold float64 `json:"crossoverThreshold"`
	// Crossovers maps each topology to the largest swept bandwidth where
	// het's makespan stayed below θ·hom (0 when het never won): the
	// measured het-vs-hom crossover point, which hop-limited bandwidth
	// shifts.
	Crossovers map[string]float64   `json:"crossovers"`
	Entries    []TopologyBenchEntry `json:"entries"`
}
