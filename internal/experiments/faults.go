package experiments

import (
	"fmt"

	"nlfl/internal/dessim"
	"nlfl/internal/faults"
	"nlfl/internal/platform"
	"nlfl/internal/results"
	"nlfl/internal/stats"
	"nlfl/internal/trace"
)

// FaultSweepConfig parameterizes the robustness experiment: the same
// deterministic crash patterns thrown at the resilient demand-driven
// executor, the static single-round DLT schedule, and the failure-aware
// re-planner.
type FaultSweepConfig struct {
	// P is the worker count; Profile draws their speeds.
	P       int
	Profile platform.SpeedProfile
	// Tasks is the demand-driven pool's task count, each task of one
	// data unit and two work units; the single-round schedule splits the
	// same totals proportionally.
	Tasks int
	// Crashes lists the x-axis: how many workers to kill per point (each
	// strictly below P).
	Crashes []int
	// Seed drives victim choice and crash times; identical seeds reproduce
	// identical sweeps.
	Seed int64
}

// The fault sweep's task shape (FaultSweepConfig.Tasks).
const (
	faultTaskData float64 = 1
	faultTaskWork float64 = 2
)

// DefaultFaultSweepConfig is the configuration behind `nlfl faults`.
func DefaultFaultSweepConfig() FaultSweepConfig {
	return FaultSweepConfig{
		P:       8,
		Profile: platform.ProfileUniform,
		Tasks:   64,
		Crashes: []int{0, 1, 2, 3},
		Seed:    1,
	}
}

// FaultSweepRow is one sweep point: a crash count, the demand-driven
// degradation, the single-round loss, and the re-planning volume price.
type FaultSweepRow struct {
	Metrics results.FaultMetrics `json:"metrics"`
	// DDTrace summarizes the demand-driven run's trace (utilization,
	// makespan decomposition, wasted-work fraction). The underlying
	// timeline is audited by trace.Check before the row is emitted.
	DDTrace results.TraceMetrics `json:"ddTrace"`
	// Demand-driven raw numbers.
	BaselineMakespan float64 `json:"baselineMakespan"`
	DDMakespan       float64 `json:"ddMakespan"`
	DDExtraComm      float64 `json:"ddExtraComm"`
	DDLostWork       float64 `json:"ddLostWork"`
	// Single-round raw numbers.
	DLTLostWork float64 `json:"dltLostWork"`
	// Re-planner raw numbers (zero-valued when Crashes = 0).
	Survivors       int     `json:"survivors"`
	SurvivorCommHom float64 `json:"survivorCommHom"`
	ReplanVolume    float64 `json:"replanVolume"`
	ReplanK         int     `json:"replanK"`
}

// FaultSweep runs the robustness comparison at every crash count in the
// configuration. Crash victims and times are drawn deterministically from
// the seed; times land in [0.2, 0.6] of the fault-free makespan, so the
// static schedule is always mid-flight when a worker dies (the regime
// where single-round DLT forfeits the victim's entire allocation while
// the demand-driven pool loses at most its in-flight chunks).
func FaultSweep(cfg FaultSweepConfig) ([]FaultSweepRow, error) {
	if cfg.P < 2 {
		return nil, fmt.Errorf("experiments: fault sweep needs ≥ 2 workers, got %d", cfg.P)
	}
	if cfg.Tasks < 1 {
		return nil, fmt.Errorf("experiments: invalid task pool shape")
	}
	for _, k := range cfg.Crashes {
		if k < 0 || k >= cfg.P {
			return nil, fmt.Errorf("experiments: cannot crash %d of %d workers", k, cfg.P)
		}
	}
	rng := stats.NewRNG(cfg.Seed)
	pl, err := platform.Generate(cfg.P, cfg.Profile.Distribution(0), rng)
	if err != nil {
		return nil, err
	}
	tasks := make([]dessim.Task, cfg.Tasks)
	totalData, totalWork := 0.0, 0.0
	for i := range tasks {
		tasks[i] = dessim.Task{Data: faultTaskData, Work: faultTaskWork}
		totalData += faultTaskData
		totalWork += faultTaskWork
	}
	base, err := faults.RunResilientDemandDriven(pl, tasks, faults.Scenario{}, faults.ResilientOptions{})
	if err != nil {
		return nil, fmt.Errorf("experiments: fault-free baseline: %w", err)
	}
	chunks := faults.LinearDLTChunks(pl, totalData, totalWork)

	rows := make([]FaultSweepRow, 0, len(cfg.Crashes))
	for _, k := range cfg.Crashes {
		// Deterministic victims and times per sweep point, all descending
		// from cfg.Seed through the shared RNG stream.
		victims := rng.Perm(cfg.P)[:k]
		sc := faults.Scenario{Seed: cfg.Seed}
		for _, v := range victims {
			frac := 0.2 + 0.4*rng.Float64()
			sc.Events = append(sc.Events, faults.Event{
				Kind: faults.Crash, Worker: v, Time: frac * base.Makespan,
			})
		}
		dd, err := faults.RunResilientDemandDriven(pl, tasks, sc, faults.ResilientOptions{})
		if err != nil {
			return nil, fmt.Errorf("experiments: %d crashes: %w", k, err)
		}
		// The embedded oracle: every sweep point's demand-driven trace must
		// satisfy the structural invariants and reconcile with the
		// executor's own ledger before we trust its numbers.
		if err := trace.Must(trace.Check(dd.Trace, &trace.Expect{
			HasWork:       true,
			TotalWork:     totalWork,
			ProcessedWork: totalWork,
			LostWork:      dd.LostWork,
			WastedWork:    dd.WastedWork,
			HasComm:       true,
			ShippedData:   dd.DataShipped,
		})); err != nil {
			return nil, fmt.Errorf("experiments: %d crashes: %w", k, err)
		}
		sr, err := faults.RunSingleRoundUnderFaults(pl, chunks, sc)
		if err != nil {
			return nil, fmt.Errorf("experiments: single-round under %d crashes: %w", k, err)
		}
		if err := trace.Must(trace.Check(sr.Trace, &trace.Expect{
			HasWork:         true,
			TotalWork:       totalWork,
			ProcessedWork:   sr.CompletedWork,
			UnprocessedWork: sr.LostWork,
			LostWork:        sr.LostWork,
		})); err != nil {
			return nil, fmt.Errorf("experiments: single-round under %d crashes: %w", k, err)
		}
		row := FaultSweepRow{
			Metrics: results.FaultMetrics{
				Crashes:           k,
				MakespanInflation: dd.Makespan / base.Makespan,
				Reexecutions:      dd.Reexecutions,
				LostWorkFraction:  dd.LostWork / totalWork,
				DLTLostFraction:   sr.LostFraction,
			},
			BaselineMakespan: base.Makespan,
			DDMakespan:       dd.Makespan,
			DDExtraComm:      dd.ExtraComm,
			DDLostWork:       dd.LostWork,
			DLTLostWork:      sr.LostWork,
		}
		row.DDTrace = trace.MetricsOf(dd.Trace)
		if dd.DataShipped > 0 {
			row.Metrics.ExtraCommFraction = dd.ExtraComm / dd.DataShipped
		}
		if k > 0 {
			rp, err := faults.ReplanAfter(pl, outerN, sc, outerEps)
			if err != nil {
				return nil, fmt.Errorf("experiments: replanning after %d crashes: %w", k, err)
			}
			row.Survivors = rp.Survivors
			row.SurvivorCommHom = rp.SurvivorCommHom
			row.ReplanVolume = rp.HomKVolume
			row.ReplanK = rp.K
			row.Metrics.ReplanVolumeRatio = rp.HomKBoundRatio
		} else {
			row.Survivors = cfg.P
		}
		rows = append(rows, row)
	}
	return rows, nil
}
