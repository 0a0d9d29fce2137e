package experiments

import (
	"math"
	"reflect"
	"testing"
)

func TestRunSuiteQuick(t *testing.T) {
	res, err := RunSuite(SuiteConfig{Trials: 5, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NonLinear) == 0 || len(res.SortScaling) == 0 || len(res.Rho) == 0 {
		t.Fatal("suite missing sections")
	}
	if len(res.Fig4Homogeneous) != 10 || len(res.Fig4Uniform) != 10 || len(res.Fig4LogNormal) != 10 {
		t.Fatalf("fig4 sweeps wrong size: %d/%d/%d",
			len(res.Fig4Homogeneous), len(res.Fig4Uniform), len(res.Fig4LogNormal))
	}
	if len(res.Affinity) == 0 || len(res.Bottleneck) == 0 || len(res.Adaptivity) == 0 || len(res.Returns) == 0 {
		t.Fatal("extension sections missing")
	}
	// The numbers the paper leads with.
	undone := math.NaN()
	for _, r := range res.NonLinear {
		if r.P == 100 && r.Alpha == 2 {
			undone = r.ClosedForm
		}
	}
	if math.Abs(undone-0.99) > 1e-9 {
		t.Errorf("headline fraction = %v, want 0.99", undone)
	}
	if het := res.Fig4Uniform[len(res.Fig4Uniform)-1].HetMean; het < 1 || het > 1.05 {
		t.Errorf("headline het ratio = %v", het)
	}
	if rho := res.Rho[len(res.Rho)-1].Measured; rho < 8 {
		t.Errorf("headline ρ(k=100) = %v, want ≈8.5", rho)
	}
}

func TestRunSuiteDeterministic(t *testing.T) {
	a, err := RunSuite(SuiteConfig{Trials: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSuite(SuiteConfig{Trials: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("suite not deterministic")
	}
}

func TestRunSuiteValidation(t *testing.T) {
	if _, err := RunSuite(SuiteConfig{Trials: 0}); err == nil {
		t.Error("zero trials should fail")
	}
}
