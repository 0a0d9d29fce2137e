package service

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"nlfl/internal/iterative"
	"nlfl/internal/trace"
)

func TestFleetWeightedStrategyJob(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	slice := f.SliceFor(JobSpec{N: 64, Strategy: "wf", Weights: []float64{1}})
	if len(slice) == 0 {
		t.Fatal("empty slice preview on a healthy fleet")
	}
	// Load the last slice worker 3× the rest; its rectangle must be the
	// largest by cells.
	weights := make([]float64, len(slice))
	for i := range weights {
		weights[i] = 1
	}
	weights[len(weights)-1] = 3
	h := mustSubmit(t, f, JobSpec{N: 64, Strategy: "wf", Weights: weights, Seed: 7})
	rep := waitOK(t, h)
	if rep.Strategy != "wf" {
		t.Fatalf("strategy = %q", rep.Strategy)
	}
	cells := map[int]float64{}
	for w, spans := range rep.Trace.Spans {
		for _, s := range spans {
			if s.Kind == trace.Compute && s.Outcome == trace.OK {
				cells[w] += s.Work
			}
		}
	}
	heavy := slice[len(slice)-1]
	for _, w := range slice[:len(slice)-1] {
		if cells[heavy] <= cells[w] {
			t.Fatalf("weight-3 worker %d computed %v cells, not above worker %d's %v",
				heavy, cells[heavy], w, cells[w])
		}
	}
	if v := trace.Check(rep.Trace, rep.Expect(0.05)); len(v) > 0 {
		t.Fatalf("wf job trace violations: %v", trace.Must(v))
	}
}

func TestWeightedStrategyValidation(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Submit(JobSpec{N: 64, Strategy: "wf"}); err == nil {
		t.Fatal("wf without weights accepted")
	}
	if _, err := f.Submit(JobSpec{N: 64, Strategy: "het", Weights: []float64{1, 2}}); err == nil {
		t.Fatal("het with weights accepted")
	}
	slice := f.SliceFor(JobSpec{N: 64, Strategy: "wf", Weights: []float64{1}})
	bad := make([]float64, len(slice)+2)
	for i := range bad {
		bad[i] = 1
	}
	_, err = f.Submit(JobSpec{N: 64, Strategy: "wf", Weights: bad})
	if err == nil || !strings.Contains(err.Error(), "SliceFor") {
		t.Fatalf("slice-mismatched weights: err = %v", err)
	}
}

func TestSubmitIterativeConverges(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 32
	h, err := SubmitIterative(f, IterativeSpec{
		N:         n,
		X0:        iterative.SeedVector(n, 0.6),
		MaxRounds: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rep, err := h.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatal("iterative job did not converge")
	}
	if want := n / 3; rep.Dominant != want {
		t.Fatalf("dominant index %d, want %d", rep.Dominant, want)
	}
	if rep.Rounds < 2 || len(rep.JobIDs) != rep.Rounds {
		t.Fatalf("rounds %d with %d job ids", rep.Rounds, len(rep.JobIDs))
	}
	if rep.TotalMakespan <= 0 || rep.TotalLatency < rep.TotalMakespan {
		t.Fatalf("ledger: makespan %v, latency %v", rep.TotalMakespan, rep.TotalLatency)
	}
	// Every round ran as a real tenant job through admission.
	acc := f.Accounting()
	if acc.Completed < rep.Rounds {
		t.Fatalf("fleet completed %d jobs for %d rounds", acc.Completed, rep.Rounds)
	}
}

func TestSubmitIterativeStalls(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h, err := SubmitIterative(f, IterativeSpec{
		N:         32,
		X0:        iterative.SeedVector(32, 0.9999),
		MaxRounds: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rep, err := h.Wait(ctx)
	if !errors.Is(err, ErrIterativeStalled) {
		t.Fatalf("err = %v, want ErrIterativeStalled", err)
	}
	if rep == nil || rep.Rounds != 2 {
		t.Fatalf("stalled report should carry the rounds run, got %+v", rep)
	}
}

func TestSubmitIterativeRoundDeadlineMiss(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// A 1 ns per-round deadline: every round misses, the retry misses
	// too, and the iterative job fails after exactly one retried round.
	h, err := SubmitIterative(f, IterativeSpec{
		N:             32,
		X0:            iterative.SeedVector(32, 0.6),
		MaxRounds:     4,
		RoundDeadline: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rep, werr := h.Wait(ctx)
	if werr == nil || !errors.Is(werr, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the round's DeadlineExceeded", werr)
	}
	if rep.DeadlineMisses < 2 {
		t.Fatalf("DeadlineMisses = %d, want both attempts counted", rep.DeadlineMisses)
	}
	if rep.Rounds != 0 {
		t.Fatalf("%d rounds completed under an impossible deadline", rep.Rounds)
	}
}

func TestSubmitIterativeValidation(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := SubmitIterative(f, IterativeSpec{N: 0}); err == nil {
		t.Fatal("accepted n=0")
	}
	if _, err := SubmitIterative(f, IterativeSpec{N: 32, X0: []float64{1, 2}}); err == nil {
		t.Fatal("accepted mis-sized start vector")
	}
}
