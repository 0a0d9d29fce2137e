// Package trace is the observability layer of the simulators: a
// structured, per-run record of what every worker did — compute and
// communication spans with byte/work volumes and outcomes, plus fault
// markers — together with an invariant checker (Check) that turns the
// record into a mechanical test oracle.
//
// Every executor in the repository produces a *Timeline: the demand-driven
// and static star executors of internal/dessim, the resilient and
// single-round fault executors (internal/faults, the resilient one also
// with speculation), linear DLT (internal/dlt), and the distributed
// sample sort (internal/samplesort). The paper's conservation
// laws — total work processed, the Comm_hom = 2N·√(Σsᵢ/s₁) volume bound,
// the ≤1% imbalance rule for Comm_hom/k — become Check expectations; any
// scheduler whose trace violates them is broken, in the spirit of the
// verification methodology of Gallet–Robert–Vivien's "Comments on ..."
// papers, which caught published schedules violating their own
// constraints.
package trace

import (
	"fmt"
	"math"
	"sort"
)

// SpanKind distinguishes what a worker was doing during a span.
type SpanKind int

// Span kinds.
const (
	// Comm is a master→worker transfer occupying the worker's link.
	Comm SpanKind = iota
	// Compute is chunk processing occupying the worker's CPU.
	Compute
)

// String implements fmt.Stringer.
func (k SpanKind) String() string {
	switch k {
	case Comm:
		return "comm"
	case Compute:
		return "compute"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Outcome records how a span ended.
type Outcome int

// Span outcomes.
const (
	// OK is a span that completed and counted.
	OK Outcome = iota
	// Dropped is a transfer that occupied the link but whose payload was
	// lost (flaky-link fault, no retry credit).
	Dropped
	// Killed is a span cut short by a worker crash; for Compute spans,
	// Work holds the work units destroyed.
	Killed
	// Wasted is a span that completed but lost a speculative race — work
	// or shipping burned without advancing the job.
	Wasted
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OK:
		return "ok"
	case Dropped:
		return "dropped"
	case Killed:
		return "killed"
	case Wasted:
		return "wasted"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// Span is one booked activity on a worker.
type Span struct {
	Kind       SpanKind
	Start, End float64
	// Data is the transfer volume in data units (Comm spans).
	Data float64
	// Work is the work units the span accounts for: completed work for OK
	// and Wasted Compute spans, destroyed work for Killed ones.
	Work float64
	// Task identifies the chunk/task (-1 when not applicable).
	Task int
	// Outcome records how the span ended.
	Outcome Outcome
}

// Duration returns End - Start.
func (s Span) Duration() float64 { return s.End - s.Start }

// MarkerKind enumerates the point events a timeline can carry.
type MarkerKind int

// Marker kinds.
const (
	// MarkCrash is a worker going down (permanent or transient).
	MarkCrash MarkerKind = iota
	// MarkRecover is a transient worker coming back.
	MarkRecover
	// MarkDrop is a transfer payload lost on arrival.
	MarkDrop
)

// String implements fmt.Stringer.
func (k MarkerKind) String() string {
	switch k {
	case MarkCrash:
		return "crash"
	case MarkRecover:
		return "recover"
	case MarkDrop:
		return "drop"
	default:
		return fmt.Sprintf("marker(%d)", int(k))
	}
}

// Marker is one point event (fault injection, recovery, payload loss).
type Marker struct {
	Kind   MarkerKind
	Worker int
	Time   float64
	// Note carries free-form detail ("permanent", "task 3"...).
	Note string
}

// Relay is one intermediate-hop transfer window: a chunk's payload
// crossing edge Edge on its way to worker Dest, booked by a
// store-and-forward topology (a linear chain forwards every deep
// delivery through the near hops). Relays occupy network edges, not
// workers — the destination's own Comm span records only the final
// delivery hop — so they live outside the per-worker span rows and are
// audited by the per-edge capacity sweep (Expect.Edges) instead of the
// per-worker overlap rules.
type Relay struct {
	// Edge is the topology edge id the window occupies.
	Edge int
	// Dest is the worker the payload was ultimately bound for.
	Dest       int
	Start, End float64
	// Data is the transfer volume in data units.
	Data float64
	// Task identifies the chunk/task (-1 when not applicable).
	Task int
}

// Duration returns End - Start.
func (r Relay) Duration() float64 { return r.End - r.Start }

// Timeline is the full structured record of one simulation run.
type Timeline struct {
	// Spans[w] lists worker w's spans in recording order (per kind this is
	// also time order for any well-formed executor — Check enforces it).
	Spans [][]Span
	// Relays lists intermediate-hop transfer windows in recording order
	// (empty for single-hop topologies like the star).
	Relays []Relay
	// Marks lists the run's point events in emission order.
	Marks []Marker
	// Makespan tracks the latest span end seen by Add.
	Makespan float64
}

// New creates an empty timeline for p workers.
func New(p int) *Timeline {
	if p < 0 {
		p = 0
	}
	return &Timeline{Spans: make([][]Span, p)}
}

// Workers returns the number of worker rows.
func (tl *Timeline) Workers() int { return len(tl.Spans) }

// Add records a span for worker w and updates the makespan. Out-of-range
// workers panic, like a slice index.
func (tl *Timeline) Add(w int, s Span) {
	tl.Spans[w] = append(tl.Spans[w], s)
	if s.End > tl.Makespan {
		tl.Makespan = s.End
	}
}

// Mark records a point event.
func (tl *Timeline) Mark(m Marker) { tl.Marks = append(tl.Marks, m) }

// AddRelay records an intermediate-hop transfer window and updates the
// makespan (a relay is network occupancy like any span).
func (tl *Timeline) AddRelay(r Relay) {
	tl.Relays = append(tl.Relays, r)
	if r.End > tl.Makespan {
		tl.Makespan = r.End
	}
}

// Shift translates every span, relay and marker by dt — used to place a
// star sub-simulation after master-side preprocessing phases (sample
// sort's Steps 1–2).
func (tl *Timeline) Shift(dt float64) {
	for w := range tl.Spans {
		for i := range tl.Spans[w] {
			tl.Spans[w][i].Start += dt
			tl.Spans[w][i].End += dt
		}
	}
	for i := range tl.Relays {
		tl.Relays[i].Start += dt
		tl.Relays[i].End += dt
	}
	for i := range tl.Marks {
		tl.Marks[i].Time += dt
	}
	tl.Makespan += dt
}

// CommVolume returns the total data units that crossed the network,
// including dropped, killed and wasted shipments — the master paid for
// all of them.
func (tl *Timeline) CommVolume() float64 {
	v := 0.0
	for _, spans := range tl.Spans {
		for _, s := range spans {
			if s.Kind == Comm {
				v += s.Data
			}
		}
	}
	return v
}

// RelayVolume returns the total data units that crossed intermediate
// hops — traffic the per-worker Comm spans (delivery hops) do not see.
// It is zero for single-hop topologies.
func (tl *Timeline) RelayVolume() float64 {
	v := 0.0
	for _, r := range tl.Relays {
		v += r.Data
	}
	return v
}

// UsefulWork returns the work units completed by winning (OK) compute
// spans — each pool unit counted once in a correct executor.
func (tl *Timeline) UsefulWork() float64 { return tl.workWith(Compute, OK) }

// WastedWork returns the work burned by losing speculative copies.
func (tl *Timeline) WastedWork() float64 { return tl.workWith(Compute, Wasted) }

// LostWork returns the work destroyed by crashes (Killed compute spans).
func (tl *Timeline) LostWork() float64 { return tl.workWith(Compute, Killed) }

func (tl *Timeline) workWith(k SpanKind, o Outcome) float64 {
	v := 0.0
	for _, spans := range tl.Spans {
		for _, s := range spans {
			if s.Kind == k && s.Outcome == o {
				v += s.Work
			}
		}
	}
	return v
}

// CommTimes returns each worker's total communication duration (all
// outcomes — the link was busy either way).
func (tl *Timeline) CommTimes() []float64 {
	out := make([]float64, len(tl.Spans))
	for w, spans := range tl.Spans {
		for _, s := range spans {
			if s.Kind == Comm {
				out[w] += s.Duration()
			}
		}
	}
	return out
}

// OverlapTimes returns, per worker, the duration during which a comm
// span and a compute span were simultaneously open on that worker — the
// communication time hidden under compute by pipelining or prefetch.
// Within each kind the spans are unioned first, so overlapping same-kind
// spans (themselves an invariant violation) are not double counted.
func (tl *Timeline) OverlapTimes() []float64 {
	out := make([]float64, len(tl.Spans))
	for w, spans := range tl.Spans {
		out[w] = intersectMeasure(kindIntervals(spans, Comm), kindIntervals(spans, Compute))
	}
	return out
}

// kindIntervals returns the union of the worker's spans of one kind as a
// sorted, disjoint interval list.
func kindIntervals(spans []Span, k SpanKind) [][2]float64 {
	var ivs [][2]float64
	for _, s := range spans {
		if s.Kind == k && s.End > s.Start {
			ivs = append(ivs, [2]float64{s.Start, s.End})
		}
	}
	if len(ivs) == 0 {
		return nil
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	merged := ivs[:1]
	for _, iv := range ivs[1:] {
		last := &merged[len(merged)-1]
		if iv[0] <= last[1] {
			if iv[1] > last[1] {
				last[1] = iv[1]
			}
			continue
		}
		merged = append(merged, iv)
	}
	return merged
}

// intersectMeasure returns the total length of the intersection of two
// sorted disjoint interval lists.
func intersectMeasure(a, b [][2]float64) float64 {
	total := 0.0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo := math.Max(a[i][0], b[j][0])
		hi := math.Min(a[i][1], b[j][1])
		if hi > lo {
			total += hi - lo
		}
		if a[i][1] < b[j][1] {
			i++
		} else {
			j++
		}
	}
	return total
}

// ComputeTimes returns each worker's total compute duration (all
// outcomes — the CPU was busy either way).
func (tl *Timeline) ComputeTimes() []float64 {
	out := make([]float64, len(tl.Spans))
	for w, spans := range tl.Spans {
		for _, s := range spans {
			if s.Kind == Compute {
				out[w] += s.Duration()
			}
		}
	}
	return out
}

// Imbalance returns e = (t_max - t_min)/t_min over per-worker compute
// times — the Section 4.3 metric behind the Comm_hom/k ≤1% rule. A worker
// with zero compute time while another computed makes it +Inf; a run with
// no compute at all returns 0.
func (tl *Timeline) Imbalance() float64 {
	tmin, tmax := math.Inf(1), 0.0
	for _, t := range tl.ComputeTimes() {
		if t < tmin {
			tmin = t
		}
		if t > tmax {
			tmax = t
		}
	}
	if tmax == 0 {
		return 0
	}
	if tmin == 0 {
		return math.Inf(1)
	}
	return (tmax - tmin) / tmin
}
