package iterative

import (
	"context"
	"errors"
	"math"
	"testing"

	"nlfl/internal/faults"
	nrt "nlfl/internal/runtime"
)

// testOptions is a small, fast iterative job: N=32 over three workers at
// a throttle low enough that the token bucket (not the real CPU) paces
// the rounds, with a loose tie so convergence lands in a handful of
// rounds.
func testOptions(mode Mode) Options {
	return Options{
		N:             32,
		X0:            SeedVector(32, 0.6),
		MaxRounds:     16,
		Tol:           1e-9,
		Mode:          mode,
		Speeds:        []float64{1, 2, 3},
		WorkPerSecond: 2e5,
		Burst:         1,
		VerifyEvery:   7,
	}
}

func TestRunConvergesAllModes(t *testing.T) {
	var residuals [][]float64
	for _, mode := range []Mode{ModeStatic, ModeAdaptive, ModeOracle} {
		opts := testOptions(mode)
		if mode == ModeOracle {
			opts.OracleRates = func(int) []float64 { return []float64{2e5, 4e5, 6e5} }
		}
		res, err := Run(context.Background(), opts)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if !res.Converged {
			t.Fatalf("%s: did not converge", mode)
		}
		if res.Violations != 0 {
			t.Fatalf("%s: %d trace violations", mode, res.Violations)
		}
		if want := 32 / 3; res.Dominant != want {
			t.Fatalf("%s: dominant index %d, want %d", mode, res.Dominant, want)
		}
		rs := make([]float64, len(res.Rounds))
		for i, r := range res.Rounds {
			rs[i] = r.Residual
		}
		residuals = append(residuals, rs)
	}
	// The iterate update is exact master-side float64 arithmetic: the
	// residual sequence must be bit-identical across planning modes.
	for m := 1; m < len(residuals); m++ {
		if len(residuals[m]) != len(residuals[0]) {
			t.Fatalf("mode %d ran %d rounds, mode 0 ran %d", m, len(residuals[m]), len(residuals[0]))
		}
		for i := range residuals[m] {
			if residuals[m][i] != residuals[0][i] {
				t.Fatalf("round %d residual differs across modes: %v vs %v", i, residuals[m][i], residuals[0][i])
			}
		}
	}
}

func TestRunKappaFollowsSpeeds(t *testing.T) {
	res, err := Run(context.Background(), testOptions(ModeStatic))
	if err != nil {
		t.Fatal(err)
	}
	k := res.Rounds[0].Kappa
	if !(k[2] > k[1] && k[1] > k[0]) {
		t.Fatalf("round-0 split %v does not follow speeds {1,2,3}", k)
	}
	total := k[0] + k[1] + k[2]
	if total != 1024 {
		t.Fatalf("split covers %v cells, want 1024", total)
	}
}

func TestRunAdaptiveTracksDrift(t *testing.T) {
	opts := testOptions(ModeAdaptive)
	opts.MaxRounds = 20
	// Worker 2 (the fastest) runs at a third of its speed from round 2 on.
	opts.Chaos = Drift{Worker: 2, Factor: 1. / 3, Round: 2}.Chaos(0)
	res, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reanchors == 0 {
		t.Fatal("persistent drift never re-anchored the estimator")
	}
	if res.Replans == 0 {
		t.Fatal("detected drift never adopted a re-plan")
	}
	if res.Violations != 0 {
		t.Fatalf("%d trace violations", res.Violations)
	}
	// After the re-plan the degraded worker's share must have shrunk.
	first, last := res.Rounds[0].Kappa, res.Rounds[len(res.Rounds)-1].Kappa
	if last[2] >= first[2] {
		t.Fatalf("degraded worker's share did not shrink: %v → %v", first[2], last[2])
	}
}

func TestRunSurvivesCrash(t *testing.T) {
	opts := testOptions(ModeAdaptive)
	opts.MaxRounds = 20
	crashed := false
	opts.Chaos = func(round int) nrt.Chaos {
		if round != 1 {
			return nrt.Chaos{}
		}
		crashed = true
		return nrt.Chaos{
			Scenario:   faults.Scenario{Events: []faults.Event{{Kind: faults.Crash, Worker: 1, Time: 0.0005}}},
			MaxRetries: 3,
		}
	}
	res, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !crashed {
		t.Fatal("scenario never fired")
	}
	if len(res.DeadWorkers) != 1 || res.DeadWorkers[0] != 1 {
		t.Fatalf("DeadWorkers = %v, want [1]", res.DeadWorkers)
	}
	if res.Violations != 0 {
		t.Fatalf("%d trace violations (exactly-once must hold through the crash)", res.Violations)
	}
	// Every round after the death must plan nothing onto the dead worker.
	sawDeath := false
	for _, r := range res.Rounds {
		if r.Degraded > 0 {
			sawDeath = true
			continue
		}
		if sawDeath && r.Kappa[1] != 0 {
			t.Fatalf("round %d planned %v cells onto the dead worker", r.Round, r.Kappa[1])
		}
	}
}

func TestRunStalls(t *testing.T) {
	opts := testOptions(ModeStatic)
	opts.X0 = SeedVector(32, 0.9999)
	opts.MaxRounds = 3
	res, err := Run(context.Background(), opts)
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	if res == nil || len(res.Rounds) != 3 {
		t.Fatalf("stalled result should carry the 3 rounds run, got %+v", res)
	}
	if res.Converged {
		t.Fatal("stalled run marked converged")
	}
}

func TestRunFrozenEstimatorStaysStale(t *testing.T) {
	opts := testOptions(ModeAdaptive)
	opts.MaxRounds = 20
	opts.FreezeAfter = 1
	opts.Chaos = Drift{Worker: 2, Factor: 1. / 3, Round: 2}.Chaos(0)
	res, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reanchors != 0 {
		t.Fatalf("frozen estimator re-anchored %d times", res.Reanchors)
	}
	// The lying estimates leave the split stuck on the stale rates.
	first, last := res.Rounds[0].Kappa, res.Rounds[len(res.Rounds)-1].Kappa
	for w := range first {
		if first[w] != last[w] {
			t.Fatalf("frozen run still re-planned: worker %d %v → %v", w, first[w], last[w])
		}
	}
}

func TestRunValidation(t *testing.T) {
	base := testOptions(ModeAdaptive)
	bad := []func(*Options){
		func(o *Options) { o.N = 0 },
		func(o *Options) { o.Speeds = nil },
		func(o *Options) { o.Speeds = []float64{1, -1} },
		func(o *Options) { o.Mode = "greedy" },
		func(o *Options) { o.Mode = ModeOracle }, // no OracleRates
		func(o *Options) { o.X0 = []float64{1, 2} },
	}
	for i, mutate := range bad {
		opts := base
		mutate(&opts)
		if _, err := Run(context.Background(), opts); err == nil {
			t.Fatalf("case %d: bad options accepted", i)
		}
	}
}

func TestSeedVector(t *testing.T) {
	x := SeedVector(32, 0.9999)
	if x[32/3] != 1 || x[64/3] != 0.9999 {
		t.Fatalf("leaders misplaced: x[%d]=%v x[%d]=%v", 32/3, x[32/3], 64/3, x[64/3])
	}
	for i, v := range x {
		if v <= 0 || v > 1 {
			t.Fatalf("entry %d = %v out of (0,1]", i, v)
		}
	}
	for _, n := range []int{1, 2, 3} {
		x := SeedVector(n, 0.5)
		if len(x) != n {
			t.Fatalf("n=%d: got %d entries", n, len(x))
		}
		if math.Abs(x[n/3]-1) > 0 {
			t.Fatalf("n=%d: dominant entry %v", n, x[n/3])
		}
	}
}
