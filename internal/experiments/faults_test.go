package experiments

import (
	"encoding/json"
	"testing"

	"nlfl/internal/platform"
	"nlfl/internal/results"
)

// degraded reports whether the faults measurably hurt the demand-driven
// run (any inflation, waste, or re-execution).
func degraded(m results.FaultMetrics) bool {
	return m.MakespanInflation > 1 || m.ExtraCommFraction > 0 ||
		m.Reexecutions > 0 || m.LostWorkFraction > 0
}

// The ISSUE's acceptance criterion: under a single permanent crash the
// demand-driven executor degrades gracefully (inflation bounded by the
// re-executed in-flight chunks) while single-round DLT loses the dead
// worker's entire allocation; the re-planner reports its volume against
// the survivor bound 2N·√(Σ sᵢ/s₁).
func TestFaultSweepAcceptance(t *testing.T) {
	cfg := DefaultFaultSweepConfig()
	cfg.Crashes = []int{0, 1, 2}
	rows, err := FaultSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}

	clean := rows[0]
	if clean.Metrics.MakespanInflation != 1 || degraded(clean.Metrics) {
		t.Errorf("zero crashes should be the clean baseline: %+v", clean.Metrics)
	}
	if clean.Metrics.DLTLostFraction != 0 || clean.Survivors != cfg.P {
		t.Errorf("zero crashes lost work: %+v", clean)
	}

	one := rows[1]
	if !degraded(one.Metrics) {
		t.Error("a permanent crash should measurably degrade the run")
	}
	if one.Metrics.MakespanInflation <= 1 {
		t.Errorf("inflation = %v, want > 1", one.Metrics.MakespanInflation)
	}
	// Graceful degradation: the demand-driven pool loses at most the
	// in-flight chunks (one per crash, plus speculative copies — none
	// here), never a worker's whole future allocation.
	if one.DDLostWork > faultTaskWork {
		t.Errorf("demand-driven lost %v work, more than one in-flight chunk (%v)", one.DDLostWork, faultTaskWork)
	}
	// Single-round DLT forfeits the victim's entire allocation: the lost
	// fraction equals the victim's normalized speed, which the demand-
	// driven loss undercuts by a wide margin.
	if one.Metrics.DLTLostFraction <= 0 {
		t.Error("single-round DLT should lose the dead worker's allocation")
	}
	if one.DDLostWork >= one.DLTLostWork {
		t.Errorf("demand-driven lost %v, single-round %v: robustness gap missing", one.DDLostWork, one.DLTLostWork)
	}

	// Re-planner: volume reported against the survivor bound, which the
	// k-refined plan exceeds by construction.
	for _, row := range rows[1:] {
		if row.Survivors != cfg.P-row.Metrics.Crashes {
			t.Errorf("%d crashes: survivors = %d", row.Metrics.Crashes, row.Survivors)
		}
		if row.SurvivorCommHom <= 0 || row.ReplanVolume <= 0 {
			t.Errorf("replanner produced empty volumes: %+v", row)
		}
		if row.Metrics.ReplanVolumeRatio < 1 {
			t.Errorf("replan volume %v below the survivor bound %v", row.ReplanVolume, row.SurvivorCommHom)
		}
	}

	// Deterministic seeds: the whole sweep reproduces bit-identically.
	again, err := FaultSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(rows)
	jb, _ := json.Marshal(again)
	if string(ja) != string(jb) {
		t.Error("identical configs produced different sweeps")
	}
}

func TestFaultSweepValidation(t *testing.T) {
	cfg := DefaultFaultSweepConfig()
	cfg.Crashes = []int{cfg.P}
	if _, err := FaultSweep(cfg); err == nil {
		t.Error("crashing every worker should be rejected")
	}
	cfg = DefaultFaultSweepConfig()
	cfg.P = 1
	if _, err := FaultSweep(cfg); err == nil {
		t.Error("single-worker sweep should be rejected")
	}
}

func TestFaultSweepHomogeneousProfile(t *testing.T) {
	cfg := DefaultFaultSweepConfig()
	cfg.Profile = platform.ProfileHomogeneous
	cfg.Crashes = []int{1}
	rows, err := FaultSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Homogeneous platform: the dead worker held exactly 1/P of the
	// single-round load.
	want := 1.0 / float64(cfg.P)
	if got := rows[0].Metrics.DLTLostFraction; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("homogeneous DLT lost fraction = %v, want %v", got, want)
	}
}
