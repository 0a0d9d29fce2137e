package experiments

import (
	"fmt"

	"nlfl/internal/nldlt"
	"nlfl/internal/platform"
	"nlfl/internal/stats"
)

// SuiteConfig parameterizes a full reproduction run.
type SuiteConfig struct {
	// Trials is the Figure 4 trial count (paper: 100).
	Trials int
	// Seed drives all randomness.
	Seed int64
	// Quick shrinks the sweeps for smoke tests.
	Quick bool
}

// SuiteResult bundles every experiment's output — the programmatic
// equivalent of `nlfl all`, so downstream code (and the regression
// records) can consume one structured object.
type SuiteResult struct {
	NonLinear        []nldlt.FractionRow   `json:"nonlinear"`
	SortScaling      []SortScalingRow      `json:"sortScaling"`
	Rho              []RhoPoint            `json:"rho"`
	Fig4Homogeneous  []Fig4Point           `json:"fig4Homogeneous"`
	Fig4Uniform      []Fig4Point           `json:"fig4Uniform"`
	Fig4LogNormal    []Fig4Point           `json:"fig4LogNormal"`
	PartitionQuality []PartitionQualityRow `json:"partitionQuality"`
	Affinity         []AffinityPoint       `json:"affinity"`
	Bottleneck       []BottleneckPoint     `json:"bottleneck"`
	Adaptivity       []AdaptivityRow       `json:"adaptivity"`
	Returns          []ReturnsRow          `json:"returns"`
}

// RunSuite executes the whole evaluation with the given configuration,
// its independent experiments side by side on the parallel runner; beside
// are further steps for the same runner (`nlfl all` adds the two records
// the suite does not hold). The result is bit-identical at any GOMAXPROCS.
func RunSuite(cfg SuiteConfig, beside ...func() error) (*SuiteResult, error) {
	if cfg.Trials <= 0 {
		return nil, fmt.Errorf("experiments: trials must be positive")
	}
	ps := []int{2, 4, 10, 32, 100}
	ns := []int{1 << 10, 1 << 14, 1 << 17, 1 << 20}
	gs := []int{10, 20, 40, 80}
	quality := []int{10, 25, 50, 100}
	if cfg.Quick {
		ps = []int{2, 10, 100}
		ns = []int{1 << 10, 1 << 14}
		gs = []int{10, 20}
		quality = []int{10, 25}
	}
	// Shared read-only by the affinity and bottleneck steps.
	pl, err := platform.Generate(10, stats.Uniform{Lo: 1, Hi: 100}, stats.NewRNG(cfg.Seed))
	if err != nil {
		return nil, err
	}
	fig4 := func(profile platform.SpeedProfile, dst *[]Fig4Point) func() error {
		return func() (err error) {
			fc := DefaultFig4Config(profile)
			fc.Trials, fc.Seed = cfg.Trials, cfg.Seed
			if cfg.Quick {
				fc.Ps = []int{10, 30}
			}
			*dst, err = Fig4(fc)
			return err
		}
	}
	out := &SuiteResult{}
	// Longest first (measured at the paper settings), so that the runner
	// ends on short steps; each step writes its own field of out.
	steps := append([]func() error{
		func() (err error) { out.SortScaling, err = SortScaling(ns, 8, cfg.Seed); return },
		func() (err error) { _, out.NonLinear, err = NonLinearTable(ps, []float64{1.5, 2, 3}, 1000); return },
		fig4(platform.ProfileLogNormal, &out.Fig4LogNormal),
		fig4(platform.ProfileUniform, &out.Fig4Uniform),
		func() (err error) { out.Affinity, err = AffinitySweep(pl, 1000, gs); return },
		fig4(platform.ProfileHomogeneous, &out.Fig4Homogeneous),
		func() (err error) {
			out.PartitionQuality, err = PartitionQuality(quality, cfg.Trials/2+1, cfg.Seed)
			return
		},
		func() (err error) {
			out.Returns, err = ReturnsSweep([]float64{0, 0.5, 1}, 6, cfg.Trials, cfg.Seed)
			return
		},
		func() (err error) {
			out.Adaptivity, err = Adaptivity(8, 800, 256, []float64{1, 0.5, 0.1, 0.02})
			return
		},
		func() (err error) { out.Rho, err = RhoSweep([]float64{1, 4, 16, 64, 100}, 20, 1000); return },
		func() (err error) {
			out.Bottleneck, err = Bottleneck(pl, 1000, 0.01, []float64{0.01, 0.1, 1, 10, 1000})
			return
		},
	}, beside...)
	if err := parallel(len(steps), func(i int) error { return steps[i]() }); err != nil {
		return nil, err
	}
	return out, nil
}

// Headline extracts the numbers the paper leads with, for quick sanity
// reports.
func (s *SuiteResult) Headline() map[string]float64 {
	h := map[string]float64{}
	for _, r := range s.NonLinear {
		if r.P == 100 && r.Alpha == 2 {
			h["undone-fraction-P100-α2"] = r.ClosedForm
		}
	}
	if n := len(s.Fig4Uniform); n > 0 {
		last := s.Fig4Uniform[n-1]
		h["fig4b-het-last"] = last.HetMean
		h["fig4b-homk-last"] = last.HomKMean
	}
	if n := len(s.Rho); n > 0 {
		h["rho-last"] = s.Rho[n-1].Measured
	}
	return h
}
