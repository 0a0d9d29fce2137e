package dessim

import (
	"fmt"
	"sort"

	"nlfl/internal/platform"
	"nlfl/internal/trace"
)

// The paper's model drops return messages "in order to concentrate on the
// influence of non-linearity" (Section 1.2, citing refs [28, 29] — the
// authors' own earlier work on DLT with return messages). This file
// restores them as an extension: after computing its chunk, a worker
// ships δ·Data units of results back through the master's ingress port,
// which serializes. The classical question is the collection order: FIFO
// (results return in the distribution order) versus LIFO (reverse order),
// and neither dominates universally — which is exactly why the paper set
// returns aside.

// ReturnOrder selects the collection discipline.
type ReturnOrder int

// Collection orders.
const (
	// FIFO returns results in distribution order.
	FIFO ReturnOrder = iota
	// LIFO returns results in reverse distribution order.
	LIFO
)

// String implements fmt.Stringer.
func (o ReturnOrder) String() string {
	switch o {
	case FIFO:
		return "fifo"
	case LIFO:
		return "lifo"
	default:
		return fmt.Sprintf("order(%d)", int(o))
	}
}

// RunSingleRoundWithReturns executes a one-chunk-per-worker schedule under
// the one-port model for distribution AND collection: the master first
// serializes the sends (in chunk order), each worker computes, and the
// results (delta·Data units each, at the worker's link bandwidth) return
// through the master's single ingress port in the chosen order. A result
// transfer starts when both the worker has finished computing and the
// port has drained the previous return. The returned timeline records the
// return transfers as Comm spans on the worker's row, after its
// distribution transfer and tagged with the same task id; the makespan
// is when the last result lands.
func RunSingleRoundWithReturns(p *platform.Platform, chunks []Chunk, delta float64, order ReturnOrder) (*trace.Timeline, error) {
	if delta < 0 {
		return nil, fmt.Errorf("dessim: negative return ratio %v", delta)
	}
	seen := make([]bool, p.P())
	for idx, ch := range chunks {
		if ch.Worker < 0 || ch.Worker >= p.P() {
			return nil, fmt.Errorf("dessim: chunk %d targets unknown worker %d", idx, ch.Worker)
		}
		if seen[ch.Worker] {
			return nil, fmt.Errorf("dessim: worker %d scheduled twice (single-chunk model)", ch.Worker)
		}
		seen[ch.Worker] = true
		if ch.Data < 0 || ch.Work < 0 {
			return nil, fmt.Errorf("dessim: chunk %d has negative size", idx)
		}
	}
	tl := trace.New(p.P())
	port := &Resource{}
	compDone := make(map[int]float64, len(chunks))
	for idx, ch := range chunks {
		w := p.Worker(ch.Worker)
		recvStart, recvEnd := port.Book(0, w.CommTime(ch.Data))
		tl.Add(ch.Worker, trace.Span{Kind: trace.Comm, Start: recvStart, End: recvEnd, Data: ch.Data, Task: idx})
		compEnd := recvEnd + w.LinearCompTime(ch.Work)
		tl.Add(ch.Worker, trace.Span{Kind: trace.Compute, Start: recvEnd, End: compEnd, Work: ch.Work, Task: idx})
		compDone[idx] = compEnd
	}
	// Collection order over chunk indices.
	ret := make([]int, len(chunks))
	for i := range ret {
		ret[i] = i
	}
	if order == LIFO {
		sort.Sort(sort.Reverse(sort.IntSlice(ret)))
	}
	ingress := &Resource{}
	for _, idx := range ret {
		ch := chunks[idx]
		w := p.Worker(ch.Worker)
		dur := w.CommTime(delta * ch.Data)
		start := compDone[idx]
		if ingress.FreeAt() > start {
			start = ingress.FreeAt()
		}
		s, e := ingress.Book(start, dur)
		tl.Add(ch.Worker, trace.Span{Kind: trace.Comm, Start: s, End: e, Data: delta * ch.Data, Task: idx})
	}
	return tl, nil
}

// CompareReturnOrders runs both disciplines and reports the makespans.
func CompareReturnOrders(p *platform.Platform, chunks []Chunk, delta float64) (fifo, lifo float64, err error) {
	f, err := RunSingleRoundWithReturns(p, chunks, delta, FIFO)
	if err != nil {
		return 0, 0, err
	}
	l, err := RunSingleRoundWithReturns(p, chunks, delta, LIFO)
	if err != nil {
		return 0, 0, err
	}
	return f.Makespan, l.Makespan, nil
}
