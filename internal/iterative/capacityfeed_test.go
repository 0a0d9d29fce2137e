package iterative

import (
	"testing"

	"nlfl/internal/capacity"
)

// TestEstimatorFeedsCapacityModel closes the planning loop across
// layers: measured rates from the estimator flow into the capacity
// planner, and a drifted fleet produces a different recommendation than
// the prior-rate fleet would.
func TestEstimatorFeedsCapacityModel(t *testing.T) {
	prior := []float64{12e4, 12e4, 9e4, 9e4, 6e4, 6e4, 3e4, 3e4}
	e := newTestEstimator(t, prior...)
	// Every worker has quietly slowed to a quarter of its prior rate;
	// two consecutive departing rounds re-anchor the whole fleet.
	for round := 0; round < 2; round++ {
		rows := make(map[int][3]float64, len(prior))
		for w, r := range prior {
			rows[w] = [3]float64{r / 4, 1, 0}
		}
		e.ObserveRound(roundTimeline(len(prior), rows))
	}
	nominal, err := capacity.FromObserved(2, 96, prior, 2.5e4)
	if err != nil {
		t.Fatal(err)
	}
	measured, err := capacity.FromObserved(2, 96, e.Rates(), 2.5e4)
	if err != nil {
		t.Fatal(err)
	}
	n, err := nominal.Recommend(0.05)
	if err != nil {
		t.Fatal(err)
	}
	m, err := measured.Recommend(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if n.Knee == m.Knee {
		t.Fatalf("drifted fleet left the knee at %d; measured rates never reached the planner", n.Knee)
	}
}
