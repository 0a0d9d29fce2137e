package dessim

import (
	"testing"

	"nlfl/internal/trace"
)

// TestExecutorsUnderOracle runs every executor of the package through the
// trace invariant oracle with the full ledger: every chunk's work is
// committed exactly once under its own task id, and the traced comm
// volume is what the schedule shipped.
func TestExecutorsUnderOracle(t *testing.T) {
	p := mustPlatform(t, 1, 2.5, 4)
	chunks := []Chunk{
		{Worker: 0, Data: 3, Work: 2},
		{Worker: 1, Data: 5, Work: 7},
		{Worker: 2, Data: 2, Work: 9},
		{Worker: 0, Data: 1, Work: 4},
		{Worker: 1, Data: 0, Work: 3},
		{Worker: 2, Data: 4, Work: 1},
	}
	single := chunks[:3] // one chunk per worker, for the returns model
	tasks := make([]Task, len(chunks))
	for i, ch := range chunks {
		tasks[i] = Task{Data: ch.Data, Work: ch.Work}
	}
	const delta = 0.5

	rows := []struct {
		name    string
		run     func() (*trace.Timeline, error)
		work    []Chunk // the schedule whose work and data the ledger sums
		shipped float64 // data per unit of chunk data (1 + δ with returns)
	}{
		{"single-round/parallel", func() (*trace.Timeline, error) { return RunSingleRound(p, chunks, ParallelLinks) }, chunks, 1},
		{"single-round/one-port", func() (*trace.Timeline, error) { return RunSingleRound(p, chunks, OnePort) }, chunks, 1},
		{"demand-driven", func() (*trace.Timeline, error) { return RunDemandDriven(p, tasks, OnePort) }, chunks, 1},
		{"bounded", func() (*trace.Timeline, error) { return RunSingleRoundBounded(p, chunks, 3) }, chunks, 1},
		{"returns", func() (*trace.Timeline, error) { return RunSingleRoundWithReturns(p, single, delta, LIFO) }, single, 1 + delta},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			tl, err := r.run()
			if err != nil {
				t.Fatal(err)
			}
			work, data := 0.0, 0.0
			for _, ch := range r.work {
				work += ch.Work
				data += ch.Data
			}
			if err := trace.Must(trace.Check(tl, &trace.Expect{
				HasWork:       true,
				TotalWork:     work,
				ProcessedWork: work,
				HasComm:       true,
				ShippedData:   data * r.shipped,
				ExactlyOnce:   true,
			})); err != nil {
				t.Error(err)
			}
		})
	}
}
