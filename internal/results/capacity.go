package results

// BenchCapacitySchema identifies the BENCH_capacity.json payload,
// bumped on breaking field changes so consumers (`nlfl bench
// -validate`) can reject files they do not understand.
const BenchCapacitySchema = "nlfl/bench-capacity/v2"

// CapacityBenchEntry is one slice size of the capacity-model validation
// sweep: the model's forecast next to what the discrete-event simulator
// and the real worker-pool runtime on the virtual clock actually did.
// Every column is deterministic given the envelope.
type CapacityBenchEntry struct {
	// Workers is the slice size p (the p fastest of the envelope speeds).
	Workers int `json:"workers"`
	// PredictedVolume is the model's continuous PERI-SUM input volume;
	// PredictedMakespan its T(p) = V/B + N^α/(R·Σs) forecast, seconds.
	PredictedVolume   float64 `json:"predictedVolume"`
	PredictedMakespan float64 `json:"predictedMakespan"`
	// SimMakespan is the discrete-event simulator's makespan over the
	// snapped plan; SimRelErr its relative disagreement with the
	// prediction (integer-grid snapping is the only modeled difference).
	SimMakespan float64 `json:"simMakespan"`
	SimRelErr   float64 `json:"simRelErr"`
	// MeasuredMakespan is the real worker pool's makespan on the virtual
	// clock; MeasuredRelErr its relative disagreement.
	MeasuredMakespan float64 `json:"measuredMakespan"`
	MeasuredRelErr   float64 `json:"measuredRelErr"`
	// Speedup is the predicted T(1)/T(p); MarginalGain the relative
	// speedup step S(p)/S(p−1) − 1 (0 for p=1) the knee scan reads.
	Speedup      float64 `json:"speedup"`
	MarginalGain float64 `json:"marginalGain"`
	// UnprocessedIfChunked is the Section 2 trap at this worker count:
	// the work fraction input chunking would leave undone.
	UnprocessedIfChunked float64 `json:"unprocessedIfChunked"`
}

// CapacityBenchFile is the BENCH_capacity.json payload: the capacity
// model validated against both the simulator and the measured runtime
// on a fixed fleet envelope, with the knee the autoscaler and `nlfl
// recommend` would report for it.
type CapacityBenchFile struct {
	Schema string `json:"schema"`
	Seed   int64  `json:"seed"`
	// Alpha, N, Speeds, WorkPerSecond and Bandwidth are the model
	// envelope; Theta the knee threshold.
	Alpha         float64   `json:"alpha"`
	N             int       `json:"n"`
	Speeds        []float64 `json:"speeds"`
	WorkPerSecond float64   `json:"workPerSecond"`
	Bandwidth     float64   `json:"bandwidth"`
	Theta         float64   `json:"theta"`
	// SimTolerance and MeasuredTolerance are the stated agreement gates
	// the entries were checked against: the snapping error of the
	// simulator and of the worker pool.
	SimTolerance      float64 `json:"simTolerance"`
	MeasuredTolerance float64 `json:"measuredTolerance"`
	// Knee is the recommended slice size at Theta; Best the speedup
	// argmax; SpeedupBound the closed-form ceiling no slice can beat.
	Knee         int     `json:"knee"`
	Best         int     `json:"best"`
	SpeedupBound float64 `json:"speedupBound"`
	GoVersion    string  `json:"goVersion"`
	// Entries covers every slice size 1..len(Speeds).
	Entries []CapacityBenchEntry `json:"entries"`
}
