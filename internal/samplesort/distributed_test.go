package samplesort

import (
	"math"
	"testing"

	"nlfl/internal/dessim"
	"nlfl/internal/platform"
)

func TestSimulateDistributedBasics(t *testing.T) {
	pl, err := platform.Homogeneous(8, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := SimulateDistributed(pl, 1<<16, Config{}, dessim.ParallelLinks)
	if err != nil {
		t.Fatal(err)
	}
	if c.Step1 <= 0 || c.Step2 <= 0 {
		t.Errorf("master phases missing: %+v", c)
	}
	if c.Makespan <= c.CommMakespan || c.CommMakespan <= c.Step1+c.Step2 {
		t.Errorf("phase ordering broken: %+v", c)
	}
	total := 0
	for _, sz := range c.BucketSizes {
		total += sz
	}
	if total != 1<<16 {
		t.Errorf("bucket sizes sum to %d", total)
	}
	if c.Speedup() <= 1 {
		t.Errorf("8 workers should beat the sequential sort at this N: speedup %v", c.Speedup())
	}
}

func TestSimulateDistributedOnePortSlower(t *testing.T) {
	pl, err := platform.Homogeneous(6, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := SimulateDistributed(pl, 1<<15, Config{}, dessim.ParallelLinks)
	if err != nil {
		t.Fatal(err)
	}
	op, err := SimulateDistributed(pl, 1<<15, Config{}, dessim.OnePort)
	if err != nil {
		t.Fatal(err)
	}
	if op.Makespan < par.Makespan {
		t.Errorf("one-port %v faster than parallel links %v", op.Makespan, par.Makespan)
	}
}

func TestSimulateDistributedHeterogeneousBuckets(t *testing.T) {
	pl, err := platform.FromSpeeds([]float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	c, err := SimulateDistributed(pl, 40000, Config{}, dessim.ParallelLinks)
	if err != nil {
		t.Fatal(err)
	}
	if c.BucketSizes[0] != 10000 || c.BucketSizes[1] != 30000 {
		t.Errorf("buckets = %v, want speed-proportional [10000 30000]", c.BucketSizes)
	}
}

func TestDistributedScalingImproves(t *testing.T) {
	pl, err := platform.Homogeneous(8, 1, 8) // fast links
	if err != nil {
		t.Fatal(err)
	}
	var rows []DistributedCost
	for _, n := range []int{1 << 12, 1 << 16, 1 << 20} {
		c, err := SimulateDistributed(pl, n, Config{}, dessim.ParallelLinks)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, c)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Speedup() <= rows[i-1].Speedup() {
			t.Errorf("speedup should grow with N: %v then %v", rows[i-1].Speedup(), rows[i].Speedup())
		}
	}
	// Pre-processing share shrinks.
	share := func(c DistributedCost) float64 { return (c.Step1 + c.Step2) / c.Makespan }
	if share(rows[2]) >= share(rows[0]) {
		t.Errorf("pre-processing share should shrink: %v then %v", share(rows[0]), share(rows[2]))
	}
}

func TestSimulateDistributedValidation(t *testing.T) {
	pl, _ := platform.Homogeneous(2, 1, 1)
	if _, err := SimulateDistributed(pl, 0, Config{}, dessim.ParallelLinks); err == nil {
		t.Error("n=0 should fail")
	}
}

func TestSimulateDistributedSingleWorker(t *testing.T) {
	pl, err := platform.Homogeneous(1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := SimulateDistributed(pl, 4096, Config{}, dessim.ParallelLinks)
	if err != nil {
		t.Fatal(err)
	}
	// p=1: no routing, bucket = everything; speedup < 1 (pays shipping).
	if c.Step2 != 0 {
		t.Errorf("p=1 should have no routing, got %v", c.Step2)
	}
	if c.Speedup() >= 1 {
		t.Errorf("p=1 distributed sort cannot beat sequential: %v", c.Speedup())
	}
	if math.Abs(float64(c.BucketSizes[0])-4096) > 0 {
		t.Errorf("bucket = %v", c.BucketSizes)
	}
}
