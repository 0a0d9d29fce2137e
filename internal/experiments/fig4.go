// Package experiments reproduces the paper's evaluation (Section 4.3) and
// the quantitative claims of Sections 2 and 3: every table and figure has
// a runner here that emits the same rows/series the paper reports.
package experiments

import (
	"fmt"

	"nlfl/internal/outer"
	"nlfl/internal/platform"
	"nlfl/internal/plot"
	"nlfl/internal/stats"
)

// Fig4Config parameterizes one panel of Figure 4.
type Fig4Config struct {
	// Ps are the processor counts on the x axis (paper: 10..100).
	Ps []int
	// Trials is the number of random platforms per point (paper: 100).
	Trials int
	// Profile selects the speed distribution (panel (a), (b) or (c)).
	Profile platform.SpeedProfile
	// BimodalK is the speed factor when Profile is ProfileBimodal.
	BimodalK float64
	// N is the vector length of the outer-product domain. The ratios are
	// N-independent; N only scales the absolute volumes.
	N float64
	// Eps is the Comm_hom/k imbalance target (paper: 1%).
	Eps float64
	// Seed drives platform generation.
	Seed int64
}

// DefaultFig4Config returns the paper's settings for a panel.
func DefaultFig4Config(profile platform.SpeedProfile) Fig4Config {
	ps := make([]int, 0, 10)
	for p := 10; p <= 100; p += 10 {
		ps = append(ps, p)
	}
	return Fig4Config{
		Ps:      ps,
		Trials:  100,
		Profile: profile,
		N:       1000,
		Eps:     0.01,
		Seed:    42,
	}
}

// Fig4Point is one x-position of a Figure 4 panel: the mean and standard
// deviation, over the random platforms, of each strategy's ratio to the
// communication lower bound.
type Fig4Point struct {
	P int
	// Het / Hom / HomK are the ratio statistics for Comm_het, Comm_hom and
	// Comm_hom/k.
	HetMean, HetSD   float64
	HomMean, HomSD   float64
	HomKMean, HomKSD float64
	// KMean is the average refinement factor Comm_hom/k settled on.
	KMean float64
}

// String renders the point as a report row.
func (pt Fig4Point) String() string {
	return fmt.Sprintf("p=%-4d het=%.4f±%.4f hom=%.3f±%.3f hom/k=%.3f±%.3f (k̄=%.1f)",
		pt.P, pt.HetMean, pt.HetSD, pt.HomMean, pt.HomSD, pt.HomKMean, pt.HomKSD, pt.KMean)
}

// Fig4 runs one panel: for every processor count it draws Trials random
// platforms, runs the three strategies, and aggregates each strategy's
// ratio to LB_comm = 2N·Σ√xᵢ.
func Fig4(cfg Fig4Config) ([]Fig4Point, error) {
	if cfg.Trials <= 0 {
		return nil, fmt.Errorf("experiments: trials must be positive")
	}
	if cfg.N <= 0 {
		cfg.N = 1000
	}
	if cfg.Eps <= 0 {
		cfg.Eps = 0.01
	}
	dist := cfg.Profile.Distribution(cfg.BimodalK)
	root := stats.NewRNG(cfg.Seed)
	points := make([]Fig4Point, 0, len(cfg.Ps))
	for _, p := range cfg.Ps {
		trials, err := perTrial(root, cfg.Trials, func(r *stats.RNG) (t [4]float64, err error) {
			pl, err := platform.Generate(p, dist, r)
			if err != nil {
				return t, err
			}
			h, err := outer.Commhet(pl, cfg.N)
			if err != nil {
				return t, err
			}
			hk, err := outer.CommhomK(pl, cfg.N, cfg.Eps, 0)
			if err != nil {
				return t, err
			}
			return [4]float64{h.Ratio, outer.Commhom(pl, cfg.N).Ratio, hk.Ratio, float64(hk.K)}, nil
		})
		if err != nil {
			return nil, err
		}
		var het, hom, homk, ks stats.Welford
		for _, t := range trials {
			het.Add(t[0])
			hom.Add(t[1])
			homk.Add(t[2])
			ks.Add(t[3])
		}
		points = append(points, Fig4Point{
			P:        p,
			HetMean:  het.Mean(),
			HetSD:    het.StdDev(),
			HomMean:  hom.Mean(),
			HomSD:    hom.StdDev(),
			HomKMean: homk.Mean(),
			HomKSD:   homk.StdDev(),
			KMean:    ks.Mean(),
		})
	}
	return points, nil
}

// Fig4MatMulPoint is one x-position of the matmul variant of Figure 4:
// the same strategies scored with the Section 4.2 volume accounting
// (n²·(Ĉ-2) for rectangles, per-footprint totals minus resident data for
// the block strategies) against the matmul lower bound n²·(LB_unit - 2).
type Fig4MatMulPoint struct {
	P                          int
	HetMean, HomMean, HomKMean float64
}

// Fig4MatMul reruns the Figure 4 sweep under the matrix-multiplication
// cost model. Section 4.2 argues the outer-product ratios transfer to
// matmul because the communication volume "is exactly proportional to the
// sum of the half-perimeters"; this harness verifies the transfer: every
// strategy's unit-square footprint cost C becomes n²·(C-2), so the ratio
// (C-2)/(LB-2) is slightly *larger* than C/LB — heterogeneity-awareness
// matters at least as much for matmul.
func Fig4MatMul(cfg Fig4Config) ([]Fig4MatMulPoint, error) {
	if cfg.Trials <= 0 {
		return nil, fmt.Errorf("experiments: trials must be positive")
	}
	if cfg.Eps <= 0 {
		cfg.Eps = 0.01
	}
	dist := cfg.Profile.Distribution(cfg.BimodalK)
	root := stats.NewRNG(cfg.Seed)
	points := make([]Fig4MatMulPoint, 0, len(cfg.Ps))
	for _, p := range cfg.Ps {
		trials, err := perTrial(root, cfg.Trials, func(r *stats.RNG) (t [3]float64, err error) {
			pl, err := platform.Generate(p, dist, r)
			if err != nil {
				return t, err
			}
			// Unit-square footprint costs (per N): C = volume/N from the
			// outer-product accounting; matmul ratio = (C-2)/(LB-2).
			const n = 1.0
			lb := outer.LowerBound(pl, n)
			h, err := outer.Commhet(pl, n)
			if err != nil {
				return t, err
			}
			hk, err := outer.CommhomK(pl, n, cfg.Eps, 0)
			if err != nil {
				return t, err
			}
			den := lb - 2
			if den <= 0 {
				return t, fmt.Errorf("experiments: degenerate matmul bound at p=%d", p)
			}
			return [3]float64{(h.Volume - 2) / den, (outer.Commhom(pl, n).Volume - 2) / den, (hk.Volume - 2) / den}, nil
		})
		if err != nil {
			return nil, err
		}
		var het, hom, homk stats.Welford
		for _, t := range trials {
			het.Add(t[0])
			hom.Add(t[1])
			homk.Add(t[2])
		}
		points = append(points, Fig4MatMulPoint{
			P: p, HetMean: het.Mean(), HomMean: hom.Mean(), HomKMean: homk.Mean(),
		})
	}
	return points, nil
}

// Fig4MatMulTable renders the matmul variant.
func Fig4MatMulTable(points []Fig4MatMulPoint) *plot.Table {
	t := plot.NewTable("p", "Comm_het", "Comm_hom", "Comm_hom/k")
	for _, pt := range points {
		t.AddRowf(pt.P, pt.HetMean, pt.HomMean, pt.HomKMean)
	}
	return t
}

// Fig4Chart renders a panel as an ASCII chart with the paper's series
// names and error bars.
func Fig4Chart(points []Fig4Point, title string) *plot.Chart {
	c := &plot.Chart{
		Title:  title,
		XLabel: "number of processors",
		YLabel: "ratio of communication amount to the lower bound",
	}
	het := c.AddSeries("Comm_het")
	hom := c.AddSeries("Comm_hom")
	homk := c.AddSeries("Comm_hom/k")
	for _, pt := range points {
		het.Add(float64(pt.P), pt.HetMean, pt.HetSD)
		hom.Add(float64(pt.P), pt.HomMean, pt.HomSD)
		homk.Add(float64(pt.P), pt.HomKMean, pt.HomKSD)
	}
	return c
}

// Fig4Table renders a panel as a text table.
func Fig4Table(points []Fig4Point) *plot.Table {
	t := plot.NewTable("p", "Comm_het", "sd", "Comm_hom", "sd", "Comm_hom/k", "sd", "mean k")
	for _, pt := range points {
		t.AddRowf(pt.P, pt.HetMean, pt.HetSD, pt.HomMean, pt.HomSD, pt.HomKMean, pt.HomKSD, pt.KMean)
	}
	return t
}
