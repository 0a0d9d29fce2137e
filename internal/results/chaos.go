package results

// BenchChaosSchema identifies the BENCH_chaos.json payload, bumped on
// breaking field changes so consumers (`nlfl bench -validate`) can reject
// files they do not understand.
const BenchChaosSchema = "nlfl/bench-chaos/v2"

// ChaosBenchEntry is one strategy execution under an injected fault
// scenario on the virtual clock, so every field — fault instants,
// recovery counters, makespan — is reproducible from the seed. In the
// volume ledger PlanVolume is the original plan's geometry,
// ReplannedVolume adds the survivor re-plan's extra traffic, and the
// committed volume must match it exactly — the run shipped precisely
// what the degraded plan called for, no more, no less.
type ChaosBenchEntry struct {
	// Class names the injected fault family: "crash", "crash-t0",
	// "straggler" or "flaky-link".
	Class string `json:"class"`
	// Platform names the speed profile, Speeds lists it.
	Platform string    `json:"platform"`
	Speeds   []float64 `json:"speeds"`
	// Strategy is "hom", "hom/k" or "het"; N the vector length.
	Strategy string `json:"strategy"`
	N        int    `json:"n"`
	// Workers is the pool size, Chunks the original plan's chunk count.
	Workers int `json:"workers"`
	Chunks  int `json:"chunks"`
	// PlanVolume is the executed plan's geometric communication volume
	// Σ(wᵢ+hᵢ); ReplannedVolume adds the extra traffic survivor re-plans
	// introduced (equal to PlanVolume when nothing was reclaimed).
	PlanVolume      float64 `json:"planVolume"`
	ReplannedVolume float64 `json:"replannedVolume"`
	// CommittedVolume is the input data of every chunk that won its
	// commit; MeasuredVolume every element actually shipped (committed
	// plus WastedData: dropped transfers, losing speculative copies, and
	// work lost to crashes).
	CommittedVolume float64 `json:"committedVolume"`
	MeasuredVolume  float64 `json:"measuredVolume"`
	WastedData      float64 `json:"wastedData"`
	// Makespan is the degraded run's modeled seconds.
	Makespan float64 `json:"makespan"`
	// RetriedChunks, SpeculativeWins, DegradedWorkers and ReclaimedCells
	// are the recovery counters — evidence the scenario actually bit.
	RetriedChunks   int     `json:"retriedChunks"`
	SpeculativeWins int     `json:"speculativeWins"`
	DegradedWorkers int     `json:"degradedWorkers"`
	ReclaimedCells  float64 `json:"reclaimedCells"`
	// Violations counts invariant-oracle findings, the exactly-once
	// commit check included; 0 in any valid file.
	Violations int `json:"violations"`
}

// ChaosBenchFile is the BENCH_chaos.json payload: the robustness sweep
// showing the measured runtime surviving one scenario per fault class
// with a clean exactly-once ledger.
type ChaosBenchFile struct {
	Schema string `json:"schema"`
	Seed   int64  `json:"seed"`
	// WorkPerSecond is the token-bucket rate scale of every run.
	WorkPerSecond float64           `json:"workPerSecond"`
	GoVersion     string            `json:"goVersion"`
	Entries       []ChaosBenchEntry `json:"entries"`
}
