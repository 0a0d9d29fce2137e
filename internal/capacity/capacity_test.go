package capacity

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
)

// benchModel is the BENCH_capacity.json envelope: a bimodal-ish 8-worker
// fleet on a constrained link, where the knee is interior.
func benchModel() Model {
	return Model{
		Alpha:         2,
		N:             96,
		Speeds:        []float64{4, 4, 3, 3, 2, 2, 1, 1},
		WorkPerSecond: 3e4,
		Bandwidth:     2.5e4,
	}
}

func TestValidateRejectsBadInputs(t *testing.T) {
	good := benchModel()
	cases := []struct {
		name   string
		mutate func(*Model)
		want   string
	}{
		{"alpha", func(m *Model) { m.Alpha = 0.5 }, "alpha"},
		{"nan-alpha", func(m *Model) { m.Alpha = math.NaN() }, "alpha"},
		{"n", func(m *Model) { m.N = 0 }, "size"},
		{"no-speeds", func(m *Model) { m.Speeds = nil }, "speed"},
		{"bad-speed", func(m *Model) { m.Speeds = []float64{1, -2} }, "speed"},
		{"rate", func(m *Model) { m.WorkPerSecond = 0 }, "rate"},
		{"bandwidth", func(m *Model) { m.Bandwidth = -1 }, "bandwidth"},
	}
	for _, tc := range cases {
		m := good
		tc.mutate(&m)
		err := m.Validate()
		if err == nil {
			t.Fatalf("%s: Validate accepted %+v", tc.name, m)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("good model rejected: %v", err)
	}
}

func TestPredictSliceClosedForms(t *testing.T) {
	m := benchModel()
	// p=1: a single worker owns the whole N×N domain, so it receives both
	// input vectors (2N elements) and computes N² cells at 4·R cells/s.
	p1, err := m.PredictSlice(1)
	if err != nil {
		t.Fatal(err)
	}
	wantVol := 2.0 * 96
	if math.Abs(p1.CommVolume-wantVol) > 1e-9 {
		t.Fatalf("p=1 volume %v, want %v", p1.CommVolume, wantVol)
	}
	wantComm := wantVol / m.Bandwidth
	wantComp := 96.0 * 96 / (m.WorkPerSecond * 4)
	if math.Abs(p1.Makespan-(wantComm+wantComp)) > 1e-12 {
		t.Fatalf("p=1 makespan %v, want %v", p1.Makespan, wantComm+wantComp)
	}
	if p1.Speedup != 1 {
		t.Fatalf("p=1 speedup %v, want 1", p1.Speedup)
	}
	if p1.UnprocessedIfChunked != 0 {
		t.Fatalf("p=1 unprocessed %v, want 0", p1.UnprocessedIfChunked)
	}

	// p=2 picks the two speed-4 workers: two half-domain rectangles, each
	// half-perimeter 1.5, so V = 2·1.5·N = 3N, and compute halves.
	p2, err := m.PredictSlice(2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p2.CommVolume-3*96) > 1e-9 {
		t.Fatalf("p=2 volume %v, want %v", p2.CommVolume, 3*96)
	}
	wantT2 := 3*96/m.Bandwidth + 96.0*96/(m.WorkPerSecond*8)
	if math.Abs(p2.Makespan-wantT2) > 1e-12 {
		t.Fatalf("p=2 makespan %v, want %v", p2.Makespan, wantT2)
	}
	if math.Abs(p2.Speedup-p1.Makespan/wantT2) > 1e-12 {
		t.Fatalf("p=2 speedup %v, want %v", p2.Speedup, p1.Makespan/wantT2)
	}
	// Chunking two workers on an α=2 load would leave half the work undone.
	if math.Abs(p2.UnprocessedIfChunked-0.5) > 1e-12 {
		t.Fatalf("p=2 unprocessed-if-chunked %v, want 0.5", p2.UnprocessedIfChunked)
	}
}

func TestRecommendKneeOnBenchEnvelope(t *testing.T) {
	rec, err := benchModel().Recommend(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Knee != 4 {
		t.Fatalf("knee %d, want 4 (curve: %+v)", rec.Knee, rec.Curve)
	}
	if rec.Best < rec.Knee {
		t.Fatalf("best %d < knee %d", rec.Best, rec.Knee)
	}
	at := rec.AtKnee()
	if at.Workers != 4 {
		t.Fatalf("AtKnee workers %d", at.Workers)
	}
	if at.Speedup < 2.0 || at.Speedup > 2.5 {
		t.Fatalf("knee speedup %v outside the calibrated [2.0, 2.5]", at.Speedup)
	}
	// Every step up to the knee clears θ; the next step does not.
	for p := 2; p <= rec.Knee; p++ {
		gain := rec.Curve[p-1].Speedup/rec.Curve[p-2].Speedup - 1
		if gain < rec.Theta {
			t.Fatalf("step %d→%d gain %v below theta inside the knee", p-1, p, gain)
		}
	}
	gain := rec.Curve[rec.Knee].Speedup/rec.Curve[rec.Knee-1].Speedup - 1
	if gain >= rec.Theta {
		t.Fatalf("step past the knee gains %v ≥ theta %v", gain, rec.Theta)
	}
}

func TestRecommendRejectsBadTheta(t *testing.T) {
	for _, theta := range []float64{0, -0.1, math.NaN(), math.Inf(1)} {
		if _, err := benchModel().Recommend(theta); err == nil {
			t.Fatalf("Recommend accepted theta %v", theta)
		}
	}
}

func TestUnconstrainedLinkHasZeroCommTime(t *testing.T) {
	m := benchModel()
	m.Bandwidth = 0
	curve, err := m.Curve()
	if err != nil {
		t.Fatal(err)
	}
	for _, pred := range curve {
		if pred.CommTime != 0 {
			t.Fatalf("p=%d comm time %v with unconstrained link", pred.Workers, pred.CommTime)
		}
		if pred.Makespan != pred.ComputeTime {
			t.Fatalf("p=%d makespan %v ≠ compute %v", pred.Workers, pred.Makespan, pred.ComputeTime)
		}
	}
	// Without a link cost, every extra worker helps: the raw curve itself
	// is strictly increasing and the knee lands at the fleet edge.
	for p := 1; p < len(curve); p++ {
		if curve[p].Speedup <= curve[p-1].Speedup {
			t.Fatalf("unconstrained speedup not increasing at p=%d", p+1)
		}
	}
}

func TestSimulatorAgreesWithinSnappingTolerance(t *testing.T) {
	m := benchModel()
	for p := 1; p <= len(m.Speeds); p++ {
		sim, err := m.SimulateMakespan(p)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if err := m.CheckObservation(p, sim, 0.05); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

// TestMeasuredRuntimeAgreesWithinNoiseTolerance runs the real worker
// pool on the virtual clock at every slice size: one run is the
// observation, it repeats exactly, and it meets the simulator's 5% gate.
func TestMeasuredRuntimeAgreesWithinNoiseTolerance(t *testing.T) {
	m := benchModel()
	for p := 1; p <= len(m.Speeds); p++ {
		meas, err := m.MeasureMakespan(context.Background(), p, 42)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if again, err := m.MeasureMakespan(context.Background(), p, 42); err != nil || again != meas {
			t.Fatalf("p=%d: rerun measured %v (err %v), first run %v", p, again, err, meas)
		}
		if err := m.CheckObservation(p, meas, 0.05); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestCheckObservationRejectsGarbage(t *testing.T) {
	m := benchModel()
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if err := m.CheckObservation(2, bad, 0.1); err == nil {
			t.Fatalf("CheckObservation accepted observed=%v", bad)
		}
	}
	pred, err := m.PredictSlice(3)
	if err != nil {
		t.Fatal(err)
	}
	err = m.CheckObservation(3, pred.Makespan*2, 0.1)
	if !errors.Is(err, ErrModelMismatch) {
		t.Fatalf("2× the prediction passed the 10%% gate: %v", err)
	}
	if err := m.CheckObservation(3, pred.Makespan*1.05, 0.1); err != nil {
		t.Fatalf("5%% off failed the 10%% gate: %v", err)
	}
}

func TestMisSpecifiedAlphaFailsValidation(t *testing.T) {
	// The real system is the α=2 outer product. A model that assumes α=3
	// predicts N³ work and an N^1.5-sided domain — its makespans are off
	// by orders of magnitude, and the validation gate must say so.
	honest := benchModel()
	lying := honest
	lying.Alpha = 3
	for _, p := range []int{1, 4, 8} {
		sim, err := lying.SimulateMakespan(p)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		err = lying.CheckObservation(p, sim, 0.25)
		if !errors.Is(err, ErrModelMismatch) {
			t.Fatalf("p=%d: mis-specified α=3 passed validation (err=%v)", p, err)
		}
		// Sanity: the honest model passes on the same observation, proving
		// the failure is the α, not the harness.
		if err := honest.CheckObservation(p, sim, 0.05); err != nil {
			t.Fatalf("p=%d: honest model rejected: %v", p, err)
		}
	}
}

func TestPredictSliceRange(t *testing.T) {
	m := benchModel()
	for _, p := range []int{0, -1, 9} {
		if _, err := m.PredictSlice(p); err == nil {
			t.Fatalf("PredictSlice accepted p=%d", p)
		}
		if _, err := m.SimulateMakespan(p); err == nil {
			t.Fatalf("SimulateMakespan accepted p=%d", p)
		}
	}
}
