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
}

// QualityTrials is the trial count of SuiteResult.QualityRecord, the E12
// record `nlfl all` writes on its own.
const QualityTrials = 50

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

	// QualityRecord is E12 at QualityTrials trials on the same platform
	// sizes: the record `nlfl all` writes beside the suite, computed in
	// the step that computes PartitionQuality, whose trials it mostly
	// shares. It is not part of the suite's own record.
	QualityRecord []PartitionQualityRow `json:"-"`
}

// RunSuite executes the whole evaluation with the given configuration,
// its independent experiments side by side on the parallel runner; beside
// are further steps for the same runner (`nlfl all` adds the fault sweep,
// a record the suite does not hold). The result is bit-identical at any
// GOMAXPROCS.
func RunSuite(cfg SuiteConfig, beside ...func() error) (*SuiteResult, error) {
	if cfg.Trials <= 0 {
		return nil, fmt.Errorf("experiments: trials must be positive")
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
			*dst, err = Fig4(fc)
			return err
		}
	}
	out := &SuiteResult{}
	// Longest first (measured at the paper settings), so that the runner
	// ends on short steps; each step writes its own field of out.
	steps := append([]func() error{
		func() (err error) {
			out.SortScaling, err = SortScaling([]int{1 << 10, 1 << 14, 1 << 17, 1 << 20}, 8, cfg.Seed)
			return
		},
		fig4(platform.ProfileLogNormal, &out.Fig4LogNormal),
		fig4(platform.ProfileUniform, &out.Fig4Uniform),
		func() error {
			runs, err := partitionQualityRuns([]int{10, 25, 50, 100}, []int{cfg.Trials/2 + 1, QualityTrials}, cfg.Seed)
			if err != nil {
				return err
			}
			out.PartitionQuality, out.QualityRecord = runs[0], runs[1]
			return nil
		},
		func() (err error) {
			_, out.NonLinear, err = NonLinearTable([]int{2, 4, 10, 32, 100}, []float64{1.5, 2, 3}, 1000)
			return
		},
		func() (err error) { out.Affinity, err = AffinitySweep(pl, 1000, []int{10, 20, 40, 80}); return },
		func() (err error) {
			out.Returns, err = ReturnsSweep([]float64{0, 0.5, 1}, 6, cfg.Trials, cfg.Seed)
			return
		},
		func() (err error) {
			out.Adaptivity, err = Adaptivity(8, 800, 256, []float64{1, 0.5, 0.1, 0.02})
			return
		},
		fig4(platform.ProfileHomogeneous, &out.Fig4Homogeneous),
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
