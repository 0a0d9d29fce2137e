package dessim

import (
	"fmt"
	"math"
	"sort"

	"nlfl/internal/platform"
	"nlfl/internal/trace"
)

// The paper's Section 1.2 model lets every master→worker transfer proceed
// at full link speed simultaneously — an infinite-egress master. This
// file implements the bounded-multiport refinement: concurrent transfers
// share the master's egress capacity with max-min fairness, each capped
// by its worker's link bandwidth. It quantifies how far the paper's
// idealization stretches: with ample egress the two models coincide; as
// egress tightens the schedule degrades continuously toward serialized
// behaviour.

// fluidTransfer is one in-flight master→worker transfer.
type fluidTransfer struct {
	worker    int
	task      int     // chunk index in the schedule
	size      float64 // original chunk size
	remaining float64
	start     float64
	work      float64
}

// RunSingleRoundBounded executes a static schedule like RunSingleRound
// under the bounded-multiport model with master egress capacity `egress`
// (data units per time unit; math.Inf(1) reproduces ParallelLinks
// exactly). Each worker receives its chunks in order, one active transfer
// per worker; active transfers share the egress max-min; computation
// queues on the worker CPU after each chunk fully arrives. Each chunk's
// spans carry its slice index as the task id.
func RunSingleRoundBounded(p *platform.Platform, chunks []Chunk, egress float64) (*trace.Timeline, error) {
	if egress <= 0 || math.IsNaN(egress) {
		return nil, fmt.Errorf("dessim: invalid egress capacity %v", egress)
	}
	tl := trace.New(p.P())
	queues := make([][]int, p.P()) // chunk indices per worker, in order
	for idx, ch := range chunks {
		if ch.Worker < 0 || ch.Worker >= p.P() {
			return nil, fmt.Errorf("dessim: chunk %d targets unknown worker %d", idx, ch.Worker)
		}
		if ch.Data < 0 || ch.Work < 0 {
			return nil, fmt.Errorf("dessim: chunk %d has negative size", idx)
		}
		queues[ch.Worker] = append(queues[ch.Worker], idx)
	}

	var active []*fluidTransfer
	cpus := make([]Resource, p.P())
	now := 0.0

	// startNext pops worker w's queue: zero-size chunks deliver instantly
	// (and chain), a positive chunk becomes an active transfer.
	var startNext func(w int)
	startNext = func(w int) {
		if len(queues[w]) == 0 {
			return
		}
		idx := queues[w][0]
		queues[w] = queues[w][1:]
		ch := chunks[idx]
		if ch.Data == 0 {
			tl.Add(w, trace.Span{Kind: trace.Comm, Start: now, End: now, Data: 0, Task: idx})
			s, e := cpus[w].Book(now, p.Worker(w).LinearCompTime(ch.Work))
			tl.Add(w, trace.Span{Kind: trace.Compute, Start: s, End: e, Work: ch.Work, Task: idx})
			startNext(w)
			return
		}
		active = append(active, &fluidTransfer{
			worker: w, task: idx, size: ch.Data, remaining: ch.Data, start: now, work: ch.Work,
		})
	}
	for w := range queues {
		startNext(w)
	}

	for len(active) > 0 {
		rates := maxMinRates(active, p, egress)
		dt := math.Inf(1)
		for i, tr := range active {
			if rates[i] <= 0 {
				continue
			}
			if d := tr.remaining / rates[i]; d < dt {
				dt = d
			}
		}
		if math.IsInf(dt, 1) {
			return nil, fmt.Errorf("dessim: transfers stalled at t=%v", now)
		}
		now += dt
		var still, finished []*fluidTransfer
		for i, tr := range active {
			tr.remaining -= rates[i] * dt
			if tr.remaining <= 1e-9*tr.size {
				finished = append(finished, tr)
			} else {
				still = append(still, tr)
			}
		}
		active = still
		sort.Slice(finished, func(a, b int) bool { return finished[a].worker < finished[b].worker })
		for _, tr := range finished {
			w := tr.worker
			tl.Add(w, trace.Span{Kind: trace.Comm, Start: tr.start, End: now, Data: tr.size, Task: tr.task})
			s, e := cpus[w].Book(now, p.Worker(w).LinearCompTime(tr.work))
			tl.Add(w, trace.Span{Kind: trace.Compute, Start: s, End: e, Work: tr.work, Task: tr.task})
			startNext(w)
		}
	}
	return tl, nil
}

// maxMinRates computes the max-min fair allocation of `egress` among the
// active transfers, each capped by its worker's link bandwidth
// (water-filling: repeatedly grant capped transfers their cap, split the
// rest evenly).
func maxMinRates(active []*fluidTransfer, p *platform.Platform, egress float64) []float64 {
	n := len(active)
	rates := make([]float64, n)
	if n == 0 {
		return rates
	}
	capLeft := egress
	unfixed := make([]int, 0, n)
	for i := range active {
		unfixed = append(unfixed, i)
	}
	for len(unfixed) > 0 {
		fair := capLeft / float64(len(unfixed))
		progress := false
		next := unfixed[:0]
		for _, i := range unfixed {
			bw := p.Worker(active[i].worker).Bandwidth
			if bw <= fair {
				rates[i] = bw
				capLeft -= bw
				progress = true
			} else {
				next = append(next, i)
			}
		}
		unfixed = next
		if !progress {
			fair = capLeft / float64(len(unfixed))
			for _, i := range unfixed {
				rates[i] = fair
			}
			break
		}
	}
	return rates
}
