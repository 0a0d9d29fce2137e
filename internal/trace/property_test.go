package trace_test

// Property tests: every executor's structured trace must satisfy the
// invariant oracle on hundreds of seeded random runs. A scheduler bug that
// double-books a CPU, loses a chunk, or misreports its ledger surfaces
// here as a trace.Check violation, in the spirit of the mechanical
// verification that caught published DLT schedules violating their own
// one-port constraints.

import (
	"strings"
	"testing"

	"nlfl/internal/dessim"
	"nlfl/internal/faults"
	"nlfl/internal/platform"
	"nlfl/internal/stats"
	"nlfl/internal/trace"
)

const propertyCases = 200

// randomScenario draws one of the four fault patterns, scaled to a time
// horizon the run will actually reach.
func randomScenario(rng *stats.RNG, p int, horizon float64) (faults.Scenario, string) {
	seed := rng.Int63()
	switch rng.Intn(4) {
	case 0:
		return faults.Scenario{}, "none"
	case 1:
		k := rng.Intn(p) // 0..p-1 crashes: at least one survivor
		sc, err := faults.RandomCrashes(p, k, horizon, seed)
		if err != nil {
			panic(err)
		}
		return sc, "crash"
	case 2:
		factor := 0.05 + 0.4*rng.Float64()
		sc, err := faults.RandomStragglers(p, 1+rng.Intn(p), factor, horizon*rng.Float64(), horizon, seed)
		if err != nil {
			panic(err)
		}
		return sc, "straggler"
	default:
		prob := 0.2 + 0.6*rng.Float64()
		sc, err := faults.FlakyLinks(p, 1+rng.Intn(p), prob, 0, horizon*rng.Float64(), seed)
		if err != nil {
			panic(err)
		}
		return sc, "flaky-link"
	}
}

func TestPropertyMapReduceTraces(t *testing.T) {
	for seed := int64(0); seed < propertyCases; seed++ {
		rng := stats.NewRNG(seed)
		p := 2 + rng.Intn(6)
		pl, err := platform.Generate(p, platform.ProfileUniform.Distribution(0), rng)
		if err != nil {
			t.Fatal(err)
		}
		n := 1 + rng.Intn(40)
		tasks := make([]dessim.Task, n)
		totalWork, totalData := 0.0, 0.0
		for i := range tasks {
			tasks[i] = dessim.Task{Data: rng.Float64() * 4, Work: 0.1 + rng.Float64()*4}
			totalData += tasks[i].Data
			totalWork += tasks[i].Work
		}
		speculate := seed%2 == 0
		res, err := faults.RunResilientDemandDriven(pl, tasks, faults.Scenario{}, faults.ResilientOptions{Speculate: speculate})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.DataShipped < totalData-1e-9 {
			t.Fatalf("seed %d: shipped %v < pool data %v", seed, res.DataShipped, totalData)
		}
		vs := trace.Check(res.Trace, &trace.Expect{
			HasWork:       true,
			TotalWork:     totalWork,
			ProcessedWork: totalWork,
			WastedWork:    res.WastedWork,
			HasComm:       true,
			ShippedData:   res.DataShipped,
		})
		if len(vs) != 0 {
			t.Fatalf("seed %d (p=%d n=%d speculate=%v): %v", seed, p, n, speculate, trace.Must(vs))
		}
	}
}

func TestPropertyResilientTraces(t *testing.T) {
	for seed := int64(0); seed < propertyCases; seed++ {
		rng := stats.NewRNG(seed)
		p := 2 + rng.Intn(6)
		pl, err := platform.Generate(p, platform.ProfileUniform.Distribution(0), rng)
		if err != nil {
			t.Fatal(err)
		}
		n := 1 + rng.Intn(30)
		tasks := make([]dessim.Task, n)
		totalWork := 0.0
		for i := range tasks {
			tasks[i] = dessim.Task{Data: rng.Float64() * 2, Work: 0.1 + rng.Float64()*3}
			totalWork += tasks[i].Work
		}
		base, err := faults.RunResilientDemandDriven(pl, tasks, faults.Scenario{}, faults.ResilientOptions{})
		if err != nil {
			t.Fatalf("seed %d baseline: %v", seed, err)
		}
		sc, kind := randomScenario(rng, p, base.Makespan)
		opt := faults.ResilientOptions{Speculate: rng.Intn(2) == 0, Sink: &recorder{}}
		rep, err := faults.RunResilientDemandDriven(pl, tasks, sc, opt)
		if err != nil {
			// A hostile-enough flaky window can exhaust the retry budget;
			// that is the executor refusing the scenario, not a trace bug.
			if strings.Contains(err.Error(), "scenario too hostile") ||
				strings.Contains(err.Error(), "insufficient surviving capacity") {
				continue
			}
			t.Fatalf("seed %d (%s): %v", seed, kind, err)
		}
		vs := trace.Check(rep.Trace, &trace.Expect{
			HasWork:       true,
			TotalWork:     totalWork,
			ProcessedWork: totalWork,
			LostWork:      rep.LostWork,
			WastedWork:    rep.WastedWork,
			HasComm:       true,
			ShippedData:   rep.DataShipped,
		})
		if len(vs) != 0 {
			t.Fatalf("seed %d (%s, p=%d n=%d): %v", seed, kind, p, n, trace.Must(vs))
		}
		if rec := opt.Sink.(*recorder); rec.Violations() != nil {
			t.Fatalf("seed %d (%s): engine-level violations: %v", seed, kind, rec.Violations())
		}
	}
}

func TestPropertySingleRoundTraces(t *testing.T) {
	for seed := int64(0); seed < propertyCases; seed++ {
		rng := stats.NewRNG(seed)
		p := 2 + rng.Intn(6)
		pl, err := platform.Generate(p, platform.ProfileUniform.Distribution(0), rng)
		if err != nil {
			t.Fatal(err)
		}
		var chunks []dessim.Chunk
		totalWork, totalData := 0.0, 0.0
		if rng.Intn(2) == 0 {
			chunks = faults.LinearDLTChunks(pl, 10+rng.Float64()*50, 10+rng.Float64()*50)
		} else {
			for i, n := 0, 1+rng.Intn(25); i < n; i++ {
				chunks = append(chunks, dessim.Chunk{
					Worker: rng.Intn(p),
					Data:   rng.Float64() * 3,
					Work:   rng.Float64() * 3,
				})
			}
		}
		for _, ch := range chunks {
			totalData += ch.Data
			totalWork += ch.Work
		}
		sc, kind := randomScenario(rng, p, 2+rng.Float64()*20)
		rep, err := faults.RunSingleRoundUnderFaults(pl, chunks, sc)
		if err != nil {
			t.Fatalf("seed %d (%s): %v", seed, kind, err)
		}
		vs := trace.Check(rep.Trace, &trace.Expect{
			HasWork:         true,
			TotalWork:       totalWork,
			ProcessedWork:   rep.CompletedWork,
			UnprocessedWork: rep.LostWork,
			LostWork:        rep.LostWork,
		})
		if len(vs) != 0 {
			t.Fatalf("seed %d (%s, p=%d chunks=%d): %v", seed, kind, p, len(chunks), trace.Must(vs))
		}
		// Single-round ships each chunk at most once: the traced volume can
		// never exceed the schedule's total data.
		if v := rep.Trace.CommVolume(); v > totalData*(1+1e-9) {
			t.Fatalf("seed %d (%s): traced volume %v exceeds schedule total %v", seed, kind, v, totalData)
		}
	}
}
