package experiments

import (
	"fmt"
	"math"

	"nlfl/internal/outer"
	"nlfl/internal/platform"
	"nlfl/internal/plot"
)

// BottleneckPoint is one bandwidth level of the link-bottleneck
// experiment: single-round makespans (receive + compute, parallel links)
// for the three Section 4.1 strategies, normalized by the pure-compute
// lower bound N²/Σsᵢ.
type BottleneckPoint struct {
	// Bandwidth is the per-link bandwidth in elements per time unit.
	Bandwidth float64
	// Het, Hom, HomK are the normalized makespans.
	Het, Hom, HomK float64
}

// Bottleneck quantifies the paper's motivation for minimizing volume:
// "communication links may become bottleneck resources if the replication
// ratio is large." For each bandwidth level the per-worker data volumes
// of the three strategies are charged at the link (in parallel, one
// round) before the worker computes its x_i·N² share; the makespan is
// max_i (D_i/bw + x_i·N²/s_i). With fast links all strategies tie at the
// compute bound; as links slow down, Comm_hom/k's inflated footprints
// dominate its makespan first.
func Bottleneck(pl *platform.Platform, n float64, eps float64, bandwidths []float64) ([]BottleneckPoint, error) {
	if n <= 0 || math.IsNaN(n) || math.IsInf(n, 0) {
		return nil, fmt.Errorf("experiments: invalid size %v", n)
	}
	if eps <= 0 {
		eps = 0.01
	}
	hom := outer.Commhom(pl, n)
	homk, err := outer.CommhomK(pl, n, eps, 0)
	if err != nil {
		return nil, err
	}
	het, err := outer.Commhet(pl, n)
	if err != nil {
		return nil, err
	}
	xs := pl.NormalizedSpeeds()
	computeBound := n * n / pl.TotalSpeed()
	makespan := func(per []float64, bw float64) float64 {
		worst := 0.0
		for i, d := range per {
			t := d/bw + xs[i]*n*n/pl.Worker(i).Speed
			if t > worst {
				worst = t
			}
		}
		return worst
	}
	points := make([]BottleneckPoint, 0, len(bandwidths))
	for _, bw := range bandwidths {
		if bw <= 0 || math.IsNaN(bw) {
			return nil, fmt.Errorf("experiments: invalid bandwidth %v", bw)
		}
		points = append(points, BottleneckPoint{
			Bandwidth: bw,
			Het:       makespan(het.PerWorker, bw) / computeBound,
			Hom:       makespan(hom.PerWorker, bw) / computeBound,
			HomK:      makespan(homk.PerWorker, bw) / computeBound,
		})
	}
	return points, nil
}

// BottleneckTable renders the sweep.
func BottleneckTable(points []BottleneckPoint) *plot.Table {
	t := plot.NewTable("bandwidth", "Comm_het", "Comm_hom", "Comm_hom/k")
	for _, pt := range points {
		t.AddRowf(pt.Bandwidth, pt.Het, pt.Hom, pt.HomK)
	}
	return t
}
