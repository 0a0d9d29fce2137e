// Package platform models the paper's target computing platform
// (Section 1.2): a heterogeneous master/worker star network with p
// computing resources P₁..P_p around a master P₀.
//
// Worker Pᵢ has incoming bandwidth 1/cᵢ (cᵢ is the time to send one unit of
// data to Pᵢ) and processing speed sᵢ = 1/wᵢ (wᵢ is the time Pᵢ spends on
// one unit of computation). Unless stated otherwise communications from
// the master happen in parallel (each link is only limited by its own
// bandwidth), there are no return messages, and distribution uses a single
// round — exactly the simplifications of the paper.
package platform

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"nlfl/internal/stats"
)

// Worker is one computing resource of the star.
type Worker struct {
	// ID identifies the worker (its index at construction time).
	ID int
	// Speed is the processing speed sᵢ = 1/wᵢ: units of work per time unit.
	Speed float64
	// Bandwidth is the incoming link bandwidth 1/cᵢ: data units per time
	// unit from the master.
	Bandwidth float64
}

// CommTime returns the time to send `data` units to the worker.
func (w Worker) CommTime(data float64) float64 { return data / w.Bandwidth }

// LinearCompTime returns the time to process `load` units of a linear
// divisible load: w·X.
func (w Worker) LinearCompTime(load float64) float64 { return load / w.Speed }

// PowerCompTime returns the time to process X data units of an α-power
// workload: w·X^α (Section 2's non-linear cost model).
func (w Worker) PowerCompTime(load, alpha float64) float64 {
	return math.Pow(load, alpha) / w.Speed
}

// Platform is an immutable set of workers plus cached aggregates.
type Platform struct {
	workers    []Worker
	totalSpeed float64
}

// New builds a platform from explicit workers. It returns an error when no
// worker is supplied or any worker has non-positive speed or bandwidth.
func New(workers []Worker) (*Platform, error) {
	return own(slices.Clone(workers))
}

// own is New on a worker slice that the platform may keep: the
// constructors below build theirs afresh, so they skip New's copy.
func own(ws []Worker) (*Platform, error) {
	if len(ws) == 0 {
		return nil, errors.New("platform: need at least one worker")
	}
	total := 0.0
	for i, w := range ws {
		if w.Speed <= 0 || math.IsNaN(w.Speed) || math.IsInf(w.Speed, 0) {
			return nil, fmt.Errorf("platform: worker %d has invalid speed %v", i, w.Speed)
		}
		if w.Bandwidth <= 0 || math.IsNaN(w.Bandwidth) || math.IsInf(w.Bandwidth, 0) {
			return nil, fmt.Errorf("platform: worker %d has invalid bandwidth %v", i, w.Bandwidth)
		}
		ws[i].ID = i
		total += w.Speed
	}
	return &Platform{workers: ws, totalSpeed: total}, nil
}

// FromSpeeds builds a platform with the given speeds and unit bandwidth on
// every link. The Section 4 communication-volume analysis only depends on
// speeds, so this is the constructor used by the Figure 4 experiments.
func FromSpeeds(speeds []float64) (*Platform, error) {
	ws := make([]Worker, len(speeds))
	for i, s := range speeds {
		ws[i] = Worker{Speed: s, Bandwidth: 1}
	}
	return own(ws)
}

// Homogeneous builds p identical workers with the given speed and bandwidth.
func Homogeneous(p int, speed, bandwidth float64) (*Platform, error) {
	ws := make([]Worker, p)
	for i := range ws {
		ws[i] = Worker{Speed: speed, Bandwidth: bandwidth}
	}
	return own(ws)
}

// Generate draws p worker speeds from dist (re-drawing non-positive
// samples, which can occur for pathological distributions) and unit
// bandwidths, using r for randomness.
func Generate(p int, dist stats.Distribution, r *stats.RNG) (*Platform, error) {
	ws := make([]Worker, p)
	for i := range ws {
		s := dist.Sample(r)
		for tries := 0; s <= 0 && tries < 100; tries++ {
			s = dist.Sample(r)
		}
		if s <= 0 {
			return nil, fmt.Errorf("platform: distribution %v keeps producing non-positive speeds", dist)
		}
		ws[i] = Worker{Speed: s, Bandwidth: 1}
	}
	return own(ws)
}

// P returns the number of workers.
func (p *Platform) P() int { return len(p.workers) }

// Worker returns worker i (panics for out-of-range i, like a slice).
func (p *Platform) Worker(i int) Worker { return p.workers[i] }

// Workers returns a copy of the worker list.
func (p *Platform) Workers() []Worker {
	out := make([]Worker, len(p.workers))
	copy(out, p.workers)
	return out
}

// Speeds returns the vector of speeds s₁..s_p.
func (p *Platform) Speeds() []float64 {
	out := make([]float64, len(p.workers))
	for i, w := range p.workers {
		out[i] = w.Speed
	}
	return out
}

// TotalSpeed returns Σ sᵢ.
func (p *Platform) TotalSpeed() float64 { return p.totalSpeed }

// NormalizedSpeeds returns xᵢ = sᵢ / Σ s_k, the relative speeds that define
// each worker's area share in the Section 4 partitioning; they sum to 1.
func (p *Platform) NormalizedSpeeds() []float64 {
	out := make([]float64, len(p.workers))
	for i, w := range p.workers {
		out[i] = w.Speed / p.totalSpeed
	}
	return out
}

// MinSpeed returns the smallest speed s₁ = min sᵢ.
func (p *Platform) MinSpeed() float64 {
	m := math.Inf(1)
	for _, w := range p.workers {
		if w.Speed < m {
			m = w.Speed
		}
	}
	return m
}

// MaxSpeed returns the largest speed.
func (p *Platform) MaxSpeed() float64 {
	m := math.Inf(-1)
	for _, w := range p.workers {
		if w.Speed > m {
			m = w.Speed
		}
	}
	return m
}

// String renders a short description.
func (p *Platform) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "platform{p=%d, Σs=%.4g, s∈[%.4g,%.4g]}", p.P(), p.TotalSpeed(), p.MinSpeed(), p.MaxSpeed())
	return b.String()
}

// SpeedProfile names the three Figure 4 speed-generation policies plus the
// Section 4.1.3 bimodal example.
type SpeedProfile int

// Profiles available to the experiment harness.
const (
	// ProfileHomogeneous gives every worker speed 1 (Figure 4(a)).
	ProfileHomogeneous SpeedProfile = iota
	// ProfileUniform draws speeds from Uniform[1, 100] (Figure 4(b)).
	ProfileUniform
	// ProfileLogNormal draws speeds from LogNormal(0, 1) (Figure 4(c)).
	ProfileLogNormal
	// ProfileBimodal gives half the workers speed 1 and half speed k
	// (Section 4.1.3 ρ analysis); k is the profile parameter.
	ProfileBimodal
)

// String implements fmt.Stringer.
func (sp SpeedProfile) String() string {
	switch sp {
	case ProfileHomogeneous:
		return "homogeneous"
	case ProfileUniform:
		return "uniform"
	case ProfileLogNormal:
		return "lognormal"
	case ProfileBimodal:
		return "bimodal"
	default:
		return fmt.Sprintf("profile(%d)", int(sp))
	}
}

// ParseProfile converts a name to a SpeedProfile.
func ParseProfile(name string) (SpeedProfile, error) {
	switch strings.ToLower(name) {
	case "homogeneous", "hom":
		return ProfileHomogeneous, nil
	case "uniform", "uni":
		return ProfileUniform, nil
	case "lognormal", "log":
		return ProfileLogNormal, nil
	case "bimodal", "bi":
		return ProfileBimodal, nil
	default:
		return 0, fmt.Errorf("platform: unknown speed profile %q", name)
	}
}

// Distribution returns the stats.Distribution implementing the profile;
// param is only used by ProfileBimodal (the speed factor k).
func (sp SpeedProfile) Distribution(param float64) stats.Distribution {
	switch sp {
	case ProfileHomogeneous:
		return stats.Constant{Value: 1}
	case ProfileUniform:
		return stats.Uniform{Lo: 1, Hi: 100}
	case ProfileLogNormal:
		return stats.LogNormal{Mu: 0, Sigma: 1}
	case ProfileBimodal:
		return stats.Bimodal{Slow: 1, Factor: param, FastFraction: 0.5}
	default:
		return stats.Constant{Value: 1}
	}
}
