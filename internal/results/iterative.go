package results

// BenchIterativeSchema identifies the BENCH_iterative.json payload,
// bumped on breaking field changes so consumers (`nlfl bench
// -validate`) can reject files they do not understand.
const BenchIterativeSchema = "nlfl/bench-iterative/v2"

// IterativePolicyEntry is one full iterative job (power iteration to
// convergence) run under one planning policy on the drifting-straggler
// scenario. The iterate update itself is exact master-side float64
// arithmetic, so Rounds, Residuals and Dominant are deterministic and
// must be identical across policies — only the makespans, which measure
// how well each policy's splits fit the drifted fleet, may differ.
type IterativePolicyEntry struct {
	// Policy is "static" (prior rates forever), "adaptive" (measured-rate
	// water-filling re-plans) or "oracle" (told the true drifted rates).
	Policy string `json:"policy"`
	// N is the vector length; Speeds the fleet's nominal speed profile.
	N      int       `json:"n"`
	Speeds []float64 `json:"speeds"`
	// Rounds is the number of iterations run; Converged whether the
	// residual reached tolerance within the round budget.
	Rounds    int  `json:"rounds"`
	Converged bool `json:"converged"`
	// Residuals is the per-round ‖xₜ₊₁ − xₜ‖∞ sequence (deterministic).
	Residuals []float64 `json:"residuals"`
	// Dominant is the converged dominant-entry index (deterministic).
	Dominant int `json:"dominant"`
	// TotalMakespan is the summed modeled seconds of every round on the
	// virtual clock; RoundMakespans the per-round breakdown.
	TotalMakespan  float64   `json:"totalMakespan"`
	RoundMakespans []float64 `json:"roundMakespans"`
	// Replans counts adopted re-plans after round 0; Fallbacks rounds
	// where the trust gate kept the last trusted plan; Reanchors drift
	// re-anchor events inside the estimator.
	Replans   int `json:"replans"`
	Fallbacks int `json:"fallbacks"`
	Reanchors int `json:"reanchors"`
	// DriftWorker is the straggling worker, DriftFactor its rate
	// multiplier, DriftRound the round the slowdown starts.
	DriftWorker int     `json:"driftWorker"`
	DriftFactor float64 `json:"driftFactor"`
	DriftRound  int     `json:"driftRound"`
	// Violations counts trace-oracle findings across all verified
	// rounds; 0 in any valid file.
	Violations int `json:"violations"`
}

// IterativeChaosEntry is one adaptive iterative job run under an
// injected fault class, with the evidence counters proving the fault
// actually bit and the controller actually reacted.
type IterativeChaosEntry struct {
	// Class names the fault family: "crash", "straggler" or "link-slow".
	Class string `json:"class"`
	// N is the vector length; Rounds/Converged/Dominant as above.
	N         int  `json:"n"`
	Rounds    int  `json:"rounds"`
	Converged bool `json:"converged"`
	Dominant  int  `json:"dominant"`
	// TotalMakespan is the degraded job's modeled seconds.
	TotalMakespan float64 `json:"totalMakespan"`
	// DeadWorkers lists workers lost to permanent crashes; Replans and
	// Reanchors count the controller's reactions; CommTime the summed
	// OK transfer seconds (evidence the link-slow class paid for its
	// throttled link).
	DeadWorkers []int   `json:"deadWorkers"`
	Replans     int     `json:"replans"`
	Reanchors   int     `json:"reanchors"`
	CommTime    float64 `json:"commTime"`
	// Violations counts exactly-once oracle findings; 0 in any valid file.
	Violations int `json:"violations"`
}

// IterativeBenchFile is the BENCH_iterative.json payload: the
// closed-loop re-planning sweep showing measured-rate water-filling
// beating the static split under drift, staying within tolerance of the
// omniscient oracle, and surviving chaos with a clean exactly-once
// ledger.
type IterativeBenchFile struct {
	Schema string `json:"schema"`
	Seed   int64  `json:"seed"`
	// WorkPerSecond is the token-bucket rate scale of every run.
	WorkPerSecond float64 `json:"workPerSecond"`
	GoVersion     string  `json:"goVersion"`
	// Policies holds the static/adaptive/oracle drifting-straggler runs.
	Policies []IterativePolicyEntry `json:"policies"`
	// Chaos holds the per-fault-class adaptive runs.
	Chaos []IterativeChaosEntry `json:"chaos"`
	// AdaptiveOverOracle is adaptive TotalMakespan / oracle
	// TotalMakespan (gated ≤ 1.10).
	// StaticOverAdaptive is static / adaptive (gated > 1: adaptation
	// must pay for itself under drift).
	AdaptiveOverOracle float64 `json:"adaptiveOverOracle"`
	StaticOverAdaptive float64 `json:"staticOverAdaptive"`
}
