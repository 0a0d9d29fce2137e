package results

// BenchServiceSchema identifies the BENCH_service.json payload, bumped
// on breaking field changes so consumers (`nlfl bench -validate`) can
// reject files they do not understand.
const BenchServiceSchema = "nlfl/bench-service/v1"

// ServiceTenantStat is one tenant's ledger at the end of a sweep entry.
// The volume identities are the deterministic half of the record: for a
// tenant untouched by chaos, CommittedVolume equals PlanVolume exactly
// and WastedData is zero — that exactness is the isolation gate.
type ServiceTenantStat struct {
	Tenant    string `json:"tenant"`
	Submitted int    `json:"submitted"`
	Admitted  int    `json:"admitted"`
	Rejected  int    `json:"rejected"`
	Completed int    `json:"completed"`
	Failed    int    `json:"failed"`
	Cancelled int    `json:"cancelled"`
	// PlanVolume / ReplannedVolume / CommittedVolume / WastedData are the
	// tenant's summed per-job ledgers; ReclaimedCells counts cells the
	// fleet reclaimed from workers that crashed for this tenant's jobs.
	PlanVolume      float64 `json:"planVolume"`
	ReplannedVolume float64 `json:"replannedVolume"`
	CommittedVolume float64 `json:"committedVolume"`
	WastedData      float64 `json:"wastedData"`
	ReclaimedCells  float64 `json:"reclaimedCells"`
}

// ServiceBenchEntry is one measured Poisson-arrival run of the fleet
// service under one scheduling policy at one offered load. Latencies are
// wall-clock (submit to completion) and vary run to run; the admission
// counters and per-tenant volume ledgers are deterministic given the
// seed and the survived fault schedule.
type ServiceBenchEntry struct {
	// Policy is the scheduling discipline: "fifo", "srpt" or "ii".
	Policy string `json:"policy"`
	// LoadFactor is the offered load ρ relative to the fleet's calibrated
	// capacity; LambdaJobsPerSec the resulting Poisson arrival rate.
	LambdaJobsPerSec float64 `json:"lambdaJobsPerSec"`
	LoadFactor       float64 `json:"loadFactor"`
	// Chaos marks the entry whose chaos tenant ran with job-scoped faults.
	Chaos bool `json:"chaos"`
	// Autoscale marks the entry run with the capacity-model autoscaler at
	// threshold AutoscaleTheta: each job's slice is capped at the model's
	// speedup knee for its size. Knees records that knee per job size
	// ("48" → 3), and SliceOverKnee counts completed jobs whose slice
	// exceeded the knee for their size — 0 in any valid autoscale entry.
	Autoscale      bool           `json:"autoscale,omitempty"`
	AutoscaleTheta float64        `json:"autoscaleTheta,omitempty"`
	Knees          map[string]int `json:"knees,omitempty"`
	SliceOverKnee  int            `json:"sliceOverKnee,omitempty"`
	// Jobs is the offered job count; Admitted/Rejected/Completed/Failed
	// partition it (Rejected by admission control, Failed by exhausted
	// fault budgets).
	Jobs      int `json:"jobs"`
	Admitted  int `json:"admitted"`
	Rejected  int `json:"rejected"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	// Makespan is first submit to last completion; throughput counts
	// completed jobs over it.
	Makespan             float64 `json:"makespan"`
	ThroughputJobsPerSec float64 `json:"throughputJobsPerSec"`
	// Latency quantiles over completed jobs, seconds.
	LatencyP50  float64 `json:"latencyP50"`
	LatencyP99  float64 `json:"latencyP99"`
	LatencyMean float64 `json:"latencyMean"`
	LatencyMax  float64 `json:"latencyMax"`
	// MaxSliceWorkers and MeanSliceWorkers summarize admitted slice sizes
	// over completed jobs; MeanShippedPerJob is the mean input volume one
	// completed job shipped over the link (elements). The autoscaler's
	// no-free-lunch dividend shows up here: capping slices at the knee
	// trims shipped volume below the uncapped baseline at the same
	// (policy, load) point.
	MaxSliceWorkers   int     `json:"maxSliceWorkers"`
	MeanSliceWorkers  float64 `json:"meanSliceWorkers"`
	MeanShippedPerJob float64 `json:"meanShippedPerJob"`
	// Tenants is the per-tenant breakdown, sorted by tenant name.
	Tenants []ServiceTenantStat `json:"tenants"`
	// Violations counts trace-oracle findings across every completed job;
	// 0 in any valid file.
	Violations int `json:"violations"`
}

// ServiceBenchFile is the BENCH_service.json payload: the multi-tenant
// fleet service measured under a seeded Poisson arrival sweep, with and
// without job-scoped chaos.
type ServiceBenchFile struct {
	Schema string `json:"schema"`
	Seed   int64  `json:"seed"`
	Quick  bool   `json:"quick"`
	// WorkPerSecond is the token-bucket rate scale; Speeds the fleet's
	// speed profile; Bandwidth the shared master link's rate (0 = off).
	WorkPerSecond float64             `json:"workPerSecond"`
	Speeds        []float64           `json:"speeds"`
	Bandwidth     float64             `json:"bandwidth"`
	GoVersion     string              `json:"goVersion"`
	GOMAXPROCS    int                 `json:"gomaxprocs"`
	Entries       []ServiceBenchEntry `json:"entries"`
}
