package experiments

import (
	"math"
	"testing"
)

func TestAdaptivity(t *testing.T) {
	rows, err := Adaptivity(8, 800, 256, []float64{1, 0.5, 0.1, 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Healthy factor: both match the clean reference (demand-driven pays
	// a little chunking slack).
	h := rows[0]
	if math.Abs(h.Static-h.Clean) > 1e-9 {
		t.Errorf("healthy static %v != clean %v", h.Static, h.Clean)
	}
	if h.Demand > 1.3*h.Clean {
		t.Errorf("healthy demand-driven %v too far above clean %v", h.Demand, h.Clean)
	}
	for i, r := range rows {
		// Static degrades ~linearly in 1/f; demand-driven barely moves.
		if r.Static < r.Clean-1e-9 || r.Demand < r.Clean*0.5 {
			t.Errorf("row %+v: impossible makespans", r)
		}
		if i > 0 {
			if r.Static <= rows[i-1].Static {
				t.Errorf("static makespan should grow as the worker slows: %+v", rows)
			}
		}
	}
	worst := rows[len(rows)-1] // residual speed 2%
	if worst.Static < 3*worst.Demand {
		t.Errorf("under a hard slowdown, static (%v) should dwarf demand-driven (%v)",
			worst.Static, worst.Demand)
	}
	// The demand-driven residue is exactly one block stranded on the
	// straggler: makespan ≤ clean + blockWork/f. (That residual tail is
	// what Hadoop's speculative backups — faults.ResilientOptions.Speculate
	// — remove.)
	blockWork := 800.0 / 256
	if worst.Demand > worst.Clean+blockWork/0.02+1e-9 {
		t.Errorf("demand-driven %v above the one-stranded-block bound %v",
			worst.Demand, worst.Clean+blockWork/0.02)
	}
	if AdaptivityTable(rows).String() == "" {
		t.Error("empty table")
	}
}

func TestAdaptivityValidation(t *testing.T) {
	if _, err := Adaptivity(4, 100, 64, []float64{0}); err == nil {
		t.Error("factor 0 should fail")
	}
	if _, err := Adaptivity(4, 100, 64, []float64{1.5}); err == nil {
		t.Error("factor > 1 should fail")
	}
}

func TestReturnsSweep(t *testing.T) {
	rows, err := ReturnsSweep([]float64{0, 0.5, 1}, 5, 40, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// δ=0: returns are free, both orders tie everywhere.
	if rows[0].Ties != 40 || rows[0].MeanGap > 1e-9 {
		t.Errorf("δ=0 should tie everywhere: %+v", rows[0])
	}
	// Positive δ: both orders must win somewhere (the classical
	// incomparability), and the gap is material.
	for _, r := range rows[1:] {
		if r.FIFOWins == 0 || r.LIFOWins == 0 {
			t.Errorf("δ=%v: expected wins on both sides: %+v", r.Delta, r)
		}
		if r.FIFOWins+r.LIFOWins+r.Ties != 40 {
			t.Errorf("δ=%v: counts don't add up: %+v", r.Delta, r)
		}
		if r.MeanGap <= 0 {
			t.Errorf("δ=%v: zero mean gap", r.Delta)
		}
	}
	if ReturnsTable(rows).String() == "" {
		t.Error("empty table")
	}
	if _, err := ReturnsSweep([]float64{-1}, 3, 5, 1); err == nil {
		t.Error("negative delta should fail")
	}
}
