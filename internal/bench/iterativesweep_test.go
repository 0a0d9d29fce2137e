package bench

import (
	"context"
	"errors"
	"strings"
	"testing"

	"nlfl/internal/results"
)

func TestIterativeSweepQuickGates(t *testing.T) {
	cfg := Config{Seed: 42}
	f, err := RunIterativeSweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := judgeIterative(f); err != nil {
		t.Fatalf("fresh sweep fails its own gate: %v", err)
	}
	if f.StaticOverAdaptive <= 1 {
		t.Fatalf("static/adaptive ratio %v: adaptation did not pay for itself", f.StaticOverAdaptive)
	}
	if f.AdaptiveOverOracle > 1+iterOracleTolerance {
		t.Fatalf("adaptive/oracle ratio %v above the gate", f.AdaptiveOverOracle)
	}

	// Gate sensitivity: a mutation that breaks a claim must fail the
	// judge, and one that only reshapes the file must fail -validate on a
	// copy, so the CI check can actually fail.
	a := mustLookup(t, "iterative")
	mutations := []struct {
		name   string
		mutate func(*results.IterativeBenchFile)
		file   bool   // reshapes the file: only the regeneration diff sees it
		want   string // in the judge's error
	}{
		{"schema", func(f *results.IterativeBenchFile) { f.Schema = "bogus" }, true, ""},
		{"slow-adaptive", func(f *results.IterativeBenchFile) {
			for i := range f.Policies {
				if f.Policies[i].Policy == "adaptive" {
					f.Policies[i].TotalMakespan = 10 * f.Policies[i].TotalMakespan
				}
			}
		}, false, "adaptive"},
		{"nondeterministic-residual", func(f *results.IterativeBenchFile) {
			f.Policies[1].Residuals[0] *= 1.5
		}, false, "residual"},
		{"violations", func(f *results.IterativeBenchFile) { f.Chaos[0].Violations = 2 }, false, "violations"},
		{"missing-chaos-class", func(f *results.IterativeBenchFile) { f.Chaos = f.Chaos[:2] }, true, ""},
		{"stale-ratio", func(f *results.IterativeBenchFile) { f.AdaptiveOverOracle = 0.5 }, true, ""},
		{"extra-policy", func(f *results.IterativeBenchFile) {
			extra := f.Policies[0]
			extra.Policy = "greedy"
			f.Policies = append(f.Policies, extra)
		}, true, ""},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			bad := f
			bad.Policies = append([]results.IterativePolicyEntry(nil), f.Policies...)
			for i := range bad.Policies {
				bad.Policies[i].Residuals = append([]float64(nil), f.Policies[i].Residuals...)
			}
			bad.Chaos = append([]results.IterativeChaosEntry(nil), f.Chaos...)
			m.mutate(&bad)
			err := judgeIterative(bad)
			if m.file {
				if err != nil {
					t.Fatalf("reshaped payload failed the judge, not only the diff: %v", err)
				}
				rejectsFile(t, a, marshal(t, bad))
				return
			}
			if !errors.Is(err, ErrInvalidBench) {
				t.Fatalf("mutated payload passed the gate (err = %v)", err)
			}
			if !strings.Contains(err.Error(), m.want) {
				t.Fatalf("error %q does not mention %q", err, m.want)
			}
		})
	}
}

// TestIterativeSweepFrozenEstimatorFails is the negative control for the
// whole closed loop: an adaptive controller whose estimator is frozen
// after round 1 — lying estimates that never track the drift — must fail
// the convergence-quality gates. If this sweep passed, the gates would
// be measuring nothing.
func TestIterativeSweepFrozenEstimatorFails(t *testing.T) {
	cfg := Config{Seed: 42}
	f, err := runIterativeSweep(context.Background(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if gerr := judgeIterative(f); !errors.Is(gerr, ErrInvalidBench) {
		t.Fatalf("frozen-estimator sweep passed the gate (err = %v)", gerr)
	}
}
