package capacity

import (
	"math"
	"testing"

	"nlfl/internal/stats"
)

// randomModel draws a plausible planning question: 2–12 workers with
// speeds in [1, 10), α in [1.2, 3), N in [32, 160), and a link that is
// sometimes unconstrained, sometimes the bottleneck.
func randomModel(r *stats.RNG) Model {
	p := 2 + int(r.Float64()*11)
	speeds := make([]float64, p)
	for i := range speeds {
		speeds[i] = 1 + r.Float64()*9
	}
	m := Model{
		Alpha:         1.2 + r.Float64()*1.8,
		N:             32 + int(r.Float64()*128),
		Speeds:        speeds,
		WorkPerSecond: 1e4 + r.Float64()*1e6,
	}
	if r.Float64() < 0.75 {
		m.Bandwidth = 1e3 + r.Float64()*1e6
	}
	return m
}

// TestSpeedupPropertySweep is the model's property gate over 200 random
// fleets: the achievable speedup S*(P) = max_{p≤P} S(p) is monotone
// non-decreasing in the worker budget, never exceeds the closed-form
// ceiling, and saturates — once the raw curve's argmax is inside the
// budget, a larger budget buys nothing more (the α>1 no-free-lunch
// plateau).
func TestSpeedupPropertySweep(t *testing.T) {
	r := stats.NewRNG(42)
	for trial := 0; trial < 200; trial++ {
		m := randomModel(r)
		curve, err := m.Curve()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		bound, err := m.SpeedupBound()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		best := 1
		for p := 2; p <= len(curve); p++ {
			if curve[p-1].Speedup > curve[best-1].Speedup {
				best = p
			}
		}
		// s is the envelope max over p ≤ budget of the raw curve: a planner
		// never has to use workers that hurt.
		prev, s := 0.0, 0.0
		for budget := 1; budget <= len(curve); budget++ {
			s = math.Max(s, curve[budget-1].Speedup)
			if s < prev-1e-12 {
				t.Fatalf("trial %d (%+v): achievable speedup decreased at budget %d: %v < %v",
					trial, m, budget, s, prev)
			}
			if s > bound*(1+1e-9) {
				t.Fatalf("trial %d (%+v): speedup %v exceeds closed-form bound %v at budget %d",
					trial, m, s, bound, budget)
			}
			if budget >= best {
				sat := curve[best-1].Speedup
				if math.Abs(s-sat) > 1e-12 {
					t.Fatalf("trial %d: budget %d past argmax %d not saturated: %v vs %v",
						trial, budget, best, s, sat)
				}
			}
			prev = s
		}
		// The per-worker unprocessed-if-chunked fraction is itself monotone
		// in p and approaches 1 for α>1 — the Section 2 law the model
		// exists to route around.
		for p := 2; p <= len(curve); p++ {
			if curve[p-1].UnprocessedIfChunked < curve[p-2].UnprocessedIfChunked {
				t.Fatalf("trial %d: unprocessed fraction not monotone at p=%d", trial, p)
			}
		}
	}
}

// TestKneeIsConsistentAcrossTheta checks a dominance property: a
// stricter threshold can only recommend fewer workers.
func TestKneeIsConsistentAcrossTheta(t *testing.T) {
	r := stats.NewRNG(7)
	for trial := 0; trial < 100; trial++ {
		m := randomModel(r)
		prevKnee := len(m.Speeds) + 1
		for _, theta := range []float64{0.01, 0.05, 0.1, 0.25} {
			rec, err := m.Recommend(theta)
			if err != nil {
				t.Fatalf("trial %d theta %v: %v", trial, theta, err)
			}
			if rec.Knee < 1 || rec.Knee > len(m.Speeds) {
				t.Fatalf("trial %d: knee %d outside [1, %d]", trial, rec.Knee, len(m.Speeds))
			}
			if rec.Knee > prevKnee {
				t.Fatalf("trial %d: knee grew from %d to %d as theta tightened to %v",
					trial, prevKnee, rec.Knee, theta)
			}
			prevKnee = rec.Knee
		}
	}
}
