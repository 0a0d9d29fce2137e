package runtime

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// TestRunContextCancelMidTransfer is the regression test for the hang
// this repository used to have: masterLink.wait slept with an
// uninterruptible time.Sleep, so under a constrained one-port link a
// cancelled run still waited out its entire booked transfer backlog
// (seconds here, arbitrarily long in general) before returning. The
// ctx-aware wait must abandon the booked window immediately.
func TestRunContextCancelMidTransfer(t *testing.T) {
	const n = 64
	a, b := linkVectors(n)
	plan := gridPlan(t, n, 4) // 16 chunks × 32 elements each
	// 100 elements/s: one chunk's inputs take ~0.32 s on the wire, and
	// the one-port booking queues the rest behind it — the full backlog
	// is ~20 s. Cancellation at 20 ms must not wait for any of it.
	opts := Options{
		Speeds:        []float64{1, 1},
		WorkPerSecond: 1e8,
		Link:          Link{ElemsPerSecond: 100},
	}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := RunContext(ctx, plan, a, b, opts)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // mid-transfer: well inside chunk 1
	cancel()

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled run returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("RunContext did not return within 2s of cancellation (booked-window sleep not interruptible)")
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("cancellation took %v, want well under the ~20s transfer backlog", took)
	}

	// No leaked workers: the goroutine count settles back to baseline.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after cancellation", before, runtime.NumGoroutine())
}

// TestRunContextCancelChaosMidTransfer covers the chaos path's use of
// the same booked-window wait.
func TestRunContextCancelChaosMidTransfer(t *testing.T) {
	const n = 64
	a, b := linkVectors(n)
	plan := gridPlan(t, n, 4)
	opts := Options{
		Speeds:        []float64{1, 1},
		WorkPerSecond: 1e8,
		Link:          Link{ElemsPerSecond: 100},
		Chaos:         Chaos{SpeculateAfter: 10}, // forces the resilient path, no faults fire
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := RunContext(ctx, plan, a, b, opts)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled chaos run returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("chaos RunContext did not return within 2s of cancellation")
	}
}

// TestRunContextCancelMidCompute is the compute-side twin of the transfer
// test: the token bucket used to pay a chunk's debt with an
// uninterruptible time.Sleep, so a cancelled run waited out the whole
// chunk before returning. Each chunk here is 1024 cells at 500 cells/s —
// ~2 s of modeled compute; cancellation at 20 ms must cut the token wait
// short on both the fast and the resilient path.
func TestRunContextCancelMidCompute(t *testing.T) {
	const n = 64
	a, b := linkVectors(n)
	plan := gridPlan(t, n, 2) // 4 chunks × 1024 cells
	for _, tc := range []struct {
		name  string
		chaos Chaos
	}{
		{"fast", Chaos{}},
		{"chaos", Chaos{SpeculateAfter: 10}}, // resilient path, no faults fire
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{Speeds: []float64{1, 1}, WorkPerSecond: 500, Burst: 1, Chaos: tc.chaos}
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			start := time.Now()
			go func() {
				_, err := RunContext(ctx, plan, a, b, opts)
				done <- err
			}()
			time.Sleep(20 * time.Millisecond) // mid-compute: inside each worker's first chunk
			cancel()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled run returned %v, want context.Canceled", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("RunContext did not return within 5s of cancellation (token wait not interruptible)")
			}
			if took := time.Since(start); took > time.Second {
				t.Errorf("cancellation took %v, want well under the ~2s chunk debt", took)
			}
		})
	}
}
