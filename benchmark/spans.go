package main

import (
	"math"
	"slices"
	"sort"
	"sync"
)

// span is one timed interval of the traced pass. Spans are recorded by
// the harness around its calls into a layer (Derived false), or rebuilt
// from a public report field of the program under test (Derived true).
// Times are seconds since the measured phase began.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for the root span of an op
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Layer  string  `json:"layer"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	// Derived marks a span placed from a report field (fleet-clock
	// Submit/Start/Done times, rep.Trace Comm/Compute spans).
	Derived bool `json:"derived,omitempty"`
	// Worker is 1 + the worker row of a span that runs in parallel with
	// its siblings; 0 marks a serial span.
	Worker int `json:"worker,omitempty"`
	// perChunk marks a span of a report's per-chunk timeline: every
	// traced op uses them for its layer attribution, only the first
	// detailOps ops write them out.
	perChunk bool
}

// parallelPriority orders the layers of parallel sibling spans for wall
// attribution: an instant covered by several workers' spans is charged
// to the first layer listed that has a span there (a computing worker
// outranks a transferring one).
var parallelPriority = []string{"matmul", "runtime", "service"}

// recorder keeps the traced pass's spans in memory until the run ends.
type recorder struct {
	mu     sync.Mutex
	spans  []span
	ops    int
	nextID int
	detail int // ops that may still keep their per-chunk worker spans
}

// detailOps bounds the ops whose per-chunk spans are written out: a
// 1024-chunk run-grid op alone is 2048 of them.
const detailOps = 8

func newRecorder() *recorder { return &recorder{detail: detailOps} }

// opTrace collects one op's spans; ids are local until finish remaps
// them into the recorder. A nil *opTrace is the untraced op: every
// method is a no-op, so op bodies need no branches.
type opTrace struct {
	rec    *recorder
	clk    phaseClock
	spans  []span
	detail bool
}

// rootSpan is the id of every op's root span: the op itself, from its due
// time to its completion, in layer "benchmark" (the harness's own time).
const rootSpan = 0

// begin opens the trace of an op of the phase clk times that is due at
// `due`, if ops beginning then are traced (see tracedAt); otherwise it
// returns nil, the untraced op.
func (r *recorder) begin(clk phaseClock, due float64) *opTrace {
	if !tracedAt(r, due) {
		return nil
	}
	r.mu.Lock()
	detail := r.detail > 0
	if detail {
		r.detail--
	}
	r.mu.Unlock()
	t := &opTrace{rec: r, clk: clk, detail: detail}
	t.add(span{Name: "op", Layer: "benchmark", Parent: -1, Start: due, End: -1})
	return t
}

// endOp closes the op's root span at end.
func (t *opTrace) endOp(end float64) {
	if t != nil {
		t.spans[rootSpan].End = end
	}
}

// start opens a harness-timed span under parent (rootSpan for a direct
// child of the op) and returns its id for end and for children.
func (t *opTrace) start(name, layer string, parent int) int {
	if t == nil {
		return -1
	}
	return t.add(span{Name: name, Layer: layer, Parent: parent, Start: t.clk.now(), End: -1})
}

// end closes a span opened by start.
func (t *opTrace) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = t.clk.now()
}

// add records a complete span (used for derived spans) and returns its id.
func (t *opTrace) add(s span) int {
	if t == nil {
		return -1
	}
	s.ID = len(t.spans)
	t.spans = append(t.spans, s)
	return s.ID
}

// finish hands the op's spans to the recorder and returns the op's
// per-layer wall attribution (see layerTimes).
func (t *opTrace) finish() map[string]float64 {
	if t == nil {
		return nil
	}
	times := layerTimes(t.spans)
	r := t.rec
	r.mu.Lock()
	base := r.nextID
	r.nextID += len(t.spans)
	op := r.ops
	r.ops++
	for _, s := range t.spans {
		if s.perChunk && !t.detail {
			continue
		}
		s.ID += base
		if s.Parent >= 0 {
			s.Parent += base
		}
		s.Op = op
		r.spans = append(r.spans, s)
	}
	r.mu.Unlock()
	return times
}

// interval is a [start, end] pair of phase-clock seconds.
type interval [2]float64

func (iv interval) length() float64 { return max(iv[1]-iv[0], 0) }

// clip cuts iv to within bounds; an interval outside them collapses to
// zero length.
func (iv interval) clip(bounds interval) interval {
	lo, hi := max(iv[0], bounds[0]), min(iv[1], bounds[1])
	return interval{lo, max(lo, hi)}
}

// unionLength is the measure of the union of the intervals.
func unionLength(ivs []interval) float64 {
	sorted := append([]interval(nil), ivs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i][0] < sorted[j][0] })
	total := 0.0
	end := math.Inf(-1)
	for _, x := range sorted {
		if x[1] <= end {
			continue
		}
		total += x[1] - max(x[0], end)
		end = x[1]
	}
	return total
}

// selfTime is a span's duration minus the part of its interval that its
// children cover: children are clipped to the parent and overlaps count
// once.
func selfTime(parent interval, children []interval) float64 {
	clipped := make([]interval, len(children))
	for i, c := range children {
		clipped[i] = c.clip(parent)
	}
	return parent.length() - unionLength(clipped)
}

// layerTimes attributes one op's wall time to layers. Every span is
// first clipped to its ancestors. A serial span contributes its self
// time to its layer. The instants that only parallel children
// (Worker > 0) cover — not a serial sibling — are charged once, layer by
// layer in parallelPriority order: what the first layer's spans cover
// goes to it, what only later layers cover goes to those. With serial
// siblings disjoint the values sum to the root span's duration exactly;
// selfSumError reports the gap. Spans must list parents before children,
// ids equal to positions, as opTrace records them.
func layerTimes(spans []span) map[string]float64 {
	eff := make([]interval, len(spans))
	kids := make(map[int][]int, len(spans))
	for i, s := range spans {
		eff[i] = interval{s.Start, max(s.Start, s.End)}
		if s.Parent >= 0 {
			eff[i] = eff[i].clip(eff[s.Parent])
		}
		kids[s.Parent] = append(kids[s.Parent], i)
	}
	out := map[string]float64{}
	for i, s := range spans {
		if s.Worker > 0 {
			continue // charged through its parent below
		}
		var serial, all []interval
		order := append([]string(nil), parallelPriority...)
		for _, k := range kids[i] {
			all = append(all, eff[k])
			if spans[k].Worker == 0 {
				serial = append(serial, eff[k])
			} else if !slices.Contains(order, spans[k].Layer) {
				order = append(order, spans[k].Layer)
			}
		}
		out[s.Layer] += selfTime(eff[i], all)
		if len(serial) == len(all) {
			continue
		}
		covered := unionLength(serial)
		for _, layer := range order {
			for _, k := range kids[i] {
				if spans[k].Worker > 0 && spans[k].Layer == layer {
					serial = append(serial, eff[k])
				}
			}
			if u := unionLength(serial); u > covered {
				out[layer] += u - covered
				covered = u
			}
		}
	}
	return out
}

// selfSumError is |Σ layer times − latency| ÷ latency for one op.
func selfSumError(times map[string]float64, latency float64) float64 {
	if latency <= 0 {
		return 0
	}
	sum := 0.0
	for _, v := range times {
		sum += v
	}
	return math.Abs(sum-latency) / latency
}
