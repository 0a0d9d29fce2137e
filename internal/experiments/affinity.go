package experiments

import (
	"fmt"

	"nlfl/internal/affinity"
	"nlfl/internal/outer"
	"nlfl/internal/platform"
	"nlfl/internal/plot"
)

// AffinityPoint is one block-granularity level of the affinity sweep.
type AffinityPoint struct {
	// G is the blocks-per-dimension of the demand-driven decomposition.
	G int
	// NoCache/Cache/Affinity are the ratio-to-lower-bound of the three
	// policies; Het is the static Heterogeneous Blocks reference.
	NoCache, Cache, Affinity, Het float64
	// AffinityImbalance is the load imbalance the affinity policy ends
	// with (it must stay demand-driven-small).
	AffinityImbalance float64
}

// AffinitySweep evaluates the conclusion's proposed mechanism across
// block granularities: finer grids improve load balance but multiply the
// no-cache volume, while the affinity policy holds its ratio nearly flat
// — approaching the static heterogeneous layout without knowing the
// platform.
func AffinitySweep(pl *platform.Platform, n float64, gs []int) ([]AffinityPoint, error) {
	het, err := outer.Commhet(pl, n)
	if err != nil {
		return nil, err
	}
	points := make([]AffinityPoint, 0, len(gs))
	for _, g := range gs {
		if g <= 0 {
			return nil, fmt.Errorf("experiments: invalid grid %d", g)
		}
		rs, err := affinity.Compare(pl, n, g)
		if err != nil {
			return nil, err
		}
		points = append(points, AffinityPoint{
			G:                 g,
			NoCache:           rs[0].Ratio,
			Cache:             rs[1].Ratio,
			Affinity:          rs[2].Ratio,
			Het:               het.Ratio,
			AffinityImbalance: rs[2].Imbalance,
		})
	}
	return points, nil
}

// AffinityTable renders the sweep.
func AffinityTable(points []AffinityPoint) *plot.Table {
	t := plot.NewTable("g", "no-cache", "cache", "affinity", "Comm_het (static)", "affinity e")
	for _, pt := range points {
		t.AddRowf(pt.G, pt.NoCache, pt.Cache, pt.Affinity, pt.Het, pt.AffinityImbalance)
	}
	return t
}

// MemoryPoint is one cache-capacity level of the bounded-affinity sweep.
type MemoryPoint struct {
	// Capacity is the per-worker cache size in chunks (2g = unlimited).
	Capacity int
	// Ratio is volume/LB at this capacity.
	Ratio float64
}

// MemorySweep evaluates how much worker memory the conclusion's affinity
// proposal needs: volume-to-LB as a function of the per-worker LRU cache
// capacity, from 0 (no-cache accounting) to 2g (unlimited).
func MemorySweep(pl *platform.Platform, n float64, g int, capacities []int) ([]MemoryPoint, error) {
	points := make([]MemoryPoint, 0, len(capacities))
	for _, c := range capacities {
		res, err := affinity.RunBounded(pl, n, g, c)
		if err != nil {
			return nil, err
		}
		points = append(points, MemoryPoint{Capacity: c, Ratio: res.Ratio})
	}
	return points, nil
}

// MemoryTable renders the sweep.
func MemoryTable(points []MemoryPoint) *plot.Table {
	t := plot.NewTable("cache capacity (chunks)", "volume / LB")
	for _, pt := range points {
		t.AddRowf(pt.Capacity, pt.Ratio)
	}
	return t
}
