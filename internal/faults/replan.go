package faults

import (
	"fmt"
	"math"

	"nlfl/internal/outer"
	"nlfl/internal/platform"
)

// ReplanReport quantifies the data-replication price of re-planning the
// outer-product distribution after permanent crashes: the surviving
// workers must re-cover the whole N×N domain, so every strategy's volume
// is recomputed over the survivor platform and compared to what the
// fault-free platform would have paid.
type ReplanReport struct {
	// Time is the re-planning instant; Survivors the workers still up.
	Time      float64 `json:"time"`
	Survivors int     `json:"survivors"`
	// FaultFreeCommHom is the fault-free Homogeneous Blocks volume
	// 2N·√(Σ sᵢ/s₁) over the full platform — the reference the ISSUE's
	// robustness experiment reports against.
	FaultFreeCommHom float64 `json:"faultFreeCommHom"`
	// FaultFreeLB is LB_comm = 2N·Σ√xᵢ over the full platform.
	FaultFreeLB float64 `json:"faultFreeLB"`
	// SurvivorLB is LB_comm over the survivors only — no post-crash plan
	// can pay less than this.
	SurvivorLB float64 `json:"survivorLB"`
	// SurvivorCommHom is 2N·√(Σ sᵢ/s₁) over the survivors — the idealized
	// Homogeneous Blocks bound the re-planned Comm_hom/k volume is
	// reported against (HomKBoundRatio ≥ 1 always).
	SurvivorCommHom float64 `json:"survivorCommHom"`
	HomKBoundRatio  float64 `json:"homKBoundRatio"`
	// K, Blocks and HomKVolume describe the re-planned Comm_hom/k layout
	// over the survivors (block side divided by K to meet the 1%
	// imbalance target).
	K          int     `json:"k"`
	Blocks     int     `json:"blocks"`
	HomKVolume float64 `json:"homKVolume"`
	// HetVolume is the re-planned Heterogeneous Blocks (PERI-SUM) volume
	// over the survivors.
	HetVolume float64 `json:"hetVolume"`
	// ExtraVolume and ExtraRatio report the Comm_hom/k replication cost
	// added by the crash: HomKVolume − FaultFreeCommHom and
	// HomKVolume / FaultFreeCommHom.
	ExtraVolume float64 `json:"extraVolume"`
	ExtraRatio  float64 `json:"extraRatio"`
}

// Replan recomputes the outer-product data distribution over the workers
// of the compiled scenario tab that survive at time t, for an N×N computation domain: the
// Comm_hom/k block refinement (imbalance target eps, paper: 0.01) and the
// PERI-SUM heterogeneous partition, both on the survivor platform. It
// reports the volumes against the fault-free references; this is the
// failure-aware re-planning step a master runs when a permanent crash is
// detected.
func Replan(p *platform.Platform, n float64, tab *Table, t, eps float64) (*ReplanReport, error) {
	if n <= 0 {
		return nil, fmt.Errorf("faults: domain size %v must be positive", n)
	}
	sub, _, err := tab.SurvivorPlatform(p, t)
	if err != nil {
		return nil, err
	}
	rep := &ReplanReport{
		Time:             t,
		Survivors:        sub.P(),
		FaultFreeCommHom: outer.Commhom(p, n).Volume,
		FaultFreeLB:      outer.LowerBound(p, n),
		SurvivorLB:       outer.LowerBound(sub, n),
		SurvivorCommHom:  outer.Commhom(sub, n).Volume,
	}
	homk, err := outer.CommhomK(sub, n, eps, 0)
	if err != nil {
		return nil, fmt.Errorf("faults: post-crash Comm_hom/k: %w", err)
	}
	rep.K = homk.K
	rep.Blocks = homk.Blocks
	rep.HomKVolume = homk.Volume
	het, err := outer.Commhet(sub, n)
	if err != nil {
		return nil, fmt.Errorf("faults: post-crash Comm_het: %w", err)
	}
	rep.HetVolume = het.Volume
	rep.HomKBoundRatio = rep.HomKVolume / rep.SurvivorCommHom
	rep.ExtraVolume = rep.HomKVolume - rep.FaultFreeCommHom
	rep.ExtraRatio = rep.HomKVolume / rep.FaultFreeCommHom
	return rep, nil
}

// ReplanAfter is a convenience wrapper: re-plan immediately after the
// scenario's last permanent crash. It errors when the scenario contains
// no permanent crash.
func ReplanAfter(p *platform.Platform, n float64, sc Scenario, eps float64) (*ReplanReport, error) {
	last := math.Inf(-1)
	for _, e := range sc.Events {
		if e.Kind == Crash && e.Time > last {
			last = e.Time
		}
	}
	if math.IsInf(last, -1) {
		return nil, fmt.Errorf("faults: scenario has no permanent crash to re-plan around")
	}
	tab, err := sc.Compile(p.P())
	if err != nil {
		return nil, err
	}
	return Replan(p, n, tab, last, eps)
}
