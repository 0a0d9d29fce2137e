package results

// FaultMetrics is the compact robustness summary attached to fault
// experiment records: how much a fault pattern cost each strategy, in
// dimensionless ratios so records from different problem sizes compare
// directly.
type FaultMetrics struct {
	// Crashes is the number of permanent worker crashes injected.
	Crashes int `json:"crashes"`
	// MakespanInflation is faulty makespan / fault-free makespan for the
	// resilient demand-driven executor (1 = no degradation).
	MakespanInflation float64 `json:"makespanInflation"`
	// ExtraCommFraction is wasted shipped data / total shipped data.
	ExtraCommFraction float64 `json:"extraCommFraction"`
	// Reexecutions counts demand-driven task copies restarted by crashes.
	Reexecutions int `json:"reexecutions"`
	// LostWorkFraction is destroyed work / total pool work for the
	// demand-driven executor (bounded by in-flight chunks).
	LostWorkFraction float64 `json:"lostWorkFraction"`
	// DLTLostFraction is the single-round DLT schedule's destroyed work
	// fraction under the same faults (a dead worker's whole allocation).
	DLTLostFraction float64 `json:"dltLostFraction"`
	// ReplanVolumeRatio is the re-planned Comm_hom/k volume over the
	// survivor bound 2N·√(Σ sᵢ/s₁); 0 when no crash occurred.
	ReplanVolumeRatio float64 `json:"replanVolumeRatio"`
}
