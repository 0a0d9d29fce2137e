package trace

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// ViolationKind classifies what Check found wrong.
type ViolationKind int

// Violation kinds.
const (
	// BadSpan is a malformed span: NaN/Inf bounds, negative duration,
	// negative start, or negative data/work, or a span ending past the
	// recorded makespan.
	BadSpan ViolationKind = iota
	// OverlapCompute is two compute spans sharing CPU time on one worker —
	// the booking bug a broken executor exhibits first.
	OverlapCompute
	// OverlapComm is two transfers sharing one worker's link.
	OverlapComm
	// NonMonotone is a worker's span sequence going backwards in time
	// (per kind), or a marker at an invalid time.
	NonMonotone
	// WorkConservation is a broken work ledger: processed + unprocessed ≠
	// total, or the traced compute spans disagreeing with the executor's
	// reported totals.
	WorkConservation
	// CommVolume is a measured communication volume disagreeing with the
	// executor's shipping ledger or with an analytic bound
	// (Comm_hom/Comm_het/survivor bound).
	CommVolume
	// ImbalanceExceeded is a compute-time imbalance above the target
	// (Section 4.3's ≤1% rule for Comm_hom/k).
	ImbalanceExceeded
	// LinkCapacityExceeded is an instant at which the summed transfer
	// rate of the open comm spans exceeds the master link's aggregate
	// bandwidth — a run shipping data faster than the modeled network
	// admits.
	LinkCapacityExceeded
	// DuplicateCommit is one task committed (OK Compute span) more than
	// once — a broken first-writer-wins race under retries/speculation.
	// Losing copies must be recorded Wasted, crashed ones Killed; exactly
	// one OK span per task may exist.
	DuplicateCommit
	// EdgeCapacityExceeded is an instant at which one topology edge's
	// summed transfer rate — delivery spans routed over it plus relay
	// windows occupying it — exceeds that edge's capacity. This is the
	// per-edge generalization of LinkCapacityExceeded: it audits every
	// hop of a chain and every source link of a multi-source network,
	// not just the master's aggregate port.
	EdgeCapacityExceeded
)

// String implements fmt.Stringer.
func (k ViolationKind) String() string {
	switch k {
	case BadSpan:
		return "bad-span"
	case OverlapCompute:
		return "overlap-compute"
	case OverlapComm:
		return "overlap-comm"
	case NonMonotone:
		return "non-monotone"
	case WorkConservation:
		return "work-conservation"
	case CommVolume:
		return "comm-volume"
	case ImbalanceExceeded:
		return "imbalance"
	case LinkCapacityExceeded:
		return "link-capacity"
	case DuplicateCommit:
		return "duplicate-commit"
	case EdgeCapacityExceeded:
		return "edge-capacity"
	default:
		return fmt.Sprintf("violation(%d)", int(k))
	}
}

// Violation is one broken invariant.
type Violation struct {
	Kind ViolationKind
	// Worker is the offending worker (-1 for run-global violations).
	Worker int
	// Task is the offending task (-1 when not applicable).
	Task int
	// Detail is the human-readable specifics.
	Detail string
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	loc := ""
	if v.Worker >= 0 {
		loc = fmt.Sprintf(" worker %d", v.Worker)
	}
	if v.Task >= 0 {
		loc += fmt.Sprintf(" task %d", v.Task)
	}
	return fmt.Sprintf("%s:%s %s", v.Kind, loc, v.Detail)
}

// BoundKind selects how Expect.Bound constrains the measured volume. The
// zero BoundKind skips the analytic-bound check.
type BoundKind int

// Bound kinds.
const (
	// BoundExact requires measured == Bound within Tol (relative) — the
	// Comm_hom closed form on homogeneous platforms.
	BoundExact BoundKind = iota + 1
	// BoundUpper requires measured ≤ Bound·(1+Tol).
	BoundUpper
	// BoundLower requires measured ≥ Bound·(1−Tol) — e.g. the survivor
	// bound 2N·√(Σsᵢ/s₁) that any realizable re-plan must pay at least.
	BoundLower
)

// Expect carries the executor-reported ledger and analytic bounds Check
// verifies the timeline against. The zero value checks structure only.
type Expect struct {
	// HasWork enables the work-conservation checks below.
	HasWork bool
	// TotalWork is the N-equivalents submitted to the run.
	TotalWork float64
	// ProcessedWork is the work completed, each pool unit counted once
	// (winning copies only).
	ProcessedWork float64
	// UnprocessedWork is the pool work that never completed (a static
	// schedule's forfeited allocation; 0 for a resilient run that
	// finished). Conservation: Processed + Unprocessed = Total.
	UnprocessedWork float64
	// LostWork is the work destroyed mid-run by crashes (overhead beyond
	// TotalWork for executors that re-execute). Traced Killed spans may
	// undercount it (work lost before any span was cut) but never exceed
	// it.
	LostWork float64
	// WastedWork is the work burned by losing speculative copies.
	WastedWork float64

	// HasComm enables the shipping-ledger check: the timeline's total
	// comm volume must equal ShippedData within Tol.
	HasComm bool
	// ShippedData is the executor-reported total data shipped, waste
	// included.
	ShippedData float64

	// Bound is the analytic communication-volume reference (Comm_hom,
	// Comm_het, survivor bound); BoundKind selects the comparison and
	// BoundName labels the violation.
	Bound     float64
	BoundKind BoundKind
	BoundName string

	// ImbalanceTarget, when positive, caps the compute-time imbalance
	// (the paper's Comm_hom/k rule uses 0.01).
	ImbalanceTarget float64

	// ExactlyOnce, when set, requires every task id (≥ 0) to appear in at
	// most one OK Compute span across the whole timeline. Retries,
	// speculation and reclamation may re-run a task any number of times,
	// but only one copy may commit; the rest must be Wasted or Killed.
	ExactlyOnce bool

	// LinkCapacity, when positive, is the aggregate master-link bandwidth
	// in data units per second. Check sweeps every comm span (each open
	// span contributing its average rate Data/Duration) and flags any
	// instant whose summed rate exceeds the capacity — the one-port /
	// bounded-bandwidth invariant. A zero-duration span carrying data is
	// an infinite-rate transfer and always violates.
	LinkCapacity float64

	// Edges, when non-empty, arms the per-edge invariants: for every
	// edge, a capacity sweep-line over the traffic occupying it (delivery
	// Comm spans routed via Routes plus relay windows) and — when
	// HasVolume is set — a volume ledger against the executor's per-edge
	// booking totals. Edge index is the topology edge id.
	Edges []ExpectEdge
	// Routes[w] lists the edge ids worker w's delivery Comm spans occupy.
	// A circuit-switched route (star) lists every edge the transfer holds
	// simultaneously; a store-and-forward route (chain) lists only the
	// final delivery hop — the earlier hops appear as relay windows. A
	// nil row means worker w's transfers are unconstrained (memcpy path)
	// and occupy no modeled edge.
	Routes [][]int

	// Tol is the relative tolerance for every numeric comparison
	// (default 1e-9).
	Tol float64
}

// ExpectEdge is one topology edge the per-edge invariants audit.
type ExpectEdge struct {
	// Name labels the edge in violations ("hop-3", "source-1").
	Name string
	// Capacity is the edge bandwidth in data units per second; a
	// non-positive capacity disables the sweep for this edge (uncapped).
	Capacity float64
	// Volume is the executor-reported data booked onto this edge
	// (drops included); checked only when HasVolume is set.
	Volume float64
	// HasVolume enables the per-edge volume ledger. Leave it unset when
	// the expectation covers a traffic subset (one job of a shared
	// fleet): a capacity sweep over a subset is sound — the full traffic
	// can only be worse — but a volume ledger is not.
	HasVolume bool
}

// tolerance returns the effective relative tolerance.
func (e *Expect) tolerance() float64 {
	if e == nil || e.Tol <= 0 {
		return 1e-9
	}
	return e.Tol
}

// approxEqual reports a ≈ b within relative tolerance tol: |a−b| is at
// most tol times the larger magnitude.
func approxEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// overlapSlack is the absolute slack allowed between consecutive spans —
// floating-point booking arithmetic legitimately produces sub-1e-9
// overlaps.
const overlapSlack = 1e-9

// Check verifies the timeline's invariants and returns every violation
// found (nil when the trace is clean):
//
//   - structure: finite non-negative span bounds, End ≥ Start, no span
//     past the makespan, finite marker times;
//   - exclusivity: per worker, compute spans do not overlap (one CPU) and
//     comm spans do not overlap (one incoming link); a Comm span MAY
//     overlap a Compute span — that is multi-round pipelining, not a bug;
//   - monotone sim-time: per worker and kind, spans are recorded in
//     non-decreasing start order;
//   - relays: finite non-negative bounds and volumes, a non-negative edge
//     id, no relay past the makespan (no per-kind monotonicity — hops are
//     booked concurrently);
//   - with exp: work conservation (processed + unprocessed = total, traced
//     spans matching the reported ledger), the shipping ledger, the
//     analytic volume bound, the imbalance target, and — when Edges is
//     set — the per-edge capacity sweep and volume ledger over routed
//     delivery spans plus relay windows.
func Check(tl *Timeline, exp *Expect) []Violation {
	var vs []Violation
	tol := exp.tolerance()

	for w, spans := range tl.Spans {
		prevStart := map[SpanKind]float64{}
		prevEnd := map[SpanKind]float64{}
		for i, s := range spans {
			if bad := badSpan(s); bad != "" {
				vs = append(vs, Violation{Kind: BadSpan, Worker: w, Task: s.Task, Detail: fmt.Sprintf("span %d %s", i, bad)})
				continue
			}
			if s.End > tl.Makespan+overlapSlack {
				vs = append(vs, Violation{Kind: BadSpan, Worker: w, Task: s.Task,
					Detail: fmt.Sprintf("span %d ends at %v past makespan %v", i, s.End, tl.Makespan)})
			}
			if ps, seen := prevStart[s.Kind]; seen {
				if s.Start < ps-overlapSlack {
					vs = append(vs, Violation{Kind: NonMonotone, Worker: w, Task: s.Task,
						Detail: fmt.Sprintf("%s span %d starts at %v before previous start %v", s.Kind, i, s.Start, ps)})
				} else if s.Start < prevEnd[s.Kind]-overlapSlack {
					kind := OverlapCompute
					if s.Kind == Comm {
						kind = OverlapComm
					}
					vs = append(vs, Violation{Kind: kind, Worker: w, Task: s.Task,
						Detail: fmt.Sprintf("%s span %d starts at %v inside previous span ending %v", s.Kind, i, s.Start, prevEnd[s.Kind])})
				}
			}
			prevStart[s.Kind] = s.Start
			if e := prevEnd[s.Kind]; s.End > e {
				prevEnd[s.Kind] = s.End
			}
		}
	}
	for i, m := range tl.Marks {
		if math.IsNaN(m.Time) || math.IsInf(m.Time, 0) || m.Time < 0 {
			vs = append(vs, Violation{Kind: NonMonotone, Worker: m.Worker, Task: -1,
				Detail: fmt.Sprintf("marker %d (%s) at invalid time %v", i, m.Kind, m.Time)})
		}
	}
	for i, r := range tl.Relays {
		if bad := badRelay(r); bad != "" {
			vs = append(vs, Violation{Kind: BadSpan, Worker: relayWorker(tl, r), Task: r.Task,
				Detail: fmt.Sprintf("relay %d %s", i, bad)})
			continue
		}
		if r.End > tl.Makespan+overlapSlack {
			vs = append(vs, Violation{Kind: BadSpan, Worker: relayWorker(tl, r), Task: r.Task,
				Detail: fmt.Sprintf("relay %d ends at %v past makespan %v", i, r.End, tl.Makespan)})
		}
	}

	if exp == nil {
		return vs
	}

	if exp.HasWork {
		if got := exp.ProcessedWork + exp.UnprocessedWork; !approxEqual(got, exp.TotalWork, tol) {
			vs = append(vs, Violation{Kind: WorkConservation, Worker: -1, Task: -1,
				Detail: fmt.Sprintf("processed %v + unprocessed %v = %v ≠ total %v", exp.ProcessedWork, exp.UnprocessedWork, got, exp.TotalWork)})
		}
		if got := tl.UsefulWork(); !approxEqual(got, exp.ProcessedWork, tol) {
			vs = append(vs, Violation{Kind: WorkConservation, Worker: -1, Task: -1,
				Detail: fmt.Sprintf("traced useful work %v ≠ reported processed %v", got, exp.ProcessedWork)})
		}
		if got := tl.WastedWork(); !approxEqual(got, exp.WastedWork, tol) {
			vs = append(vs, Violation{Kind: WorkConservation, Worker: -1, Task: -1,
				Detail: fmt.Sprintf("traced wasted work %v ≠ reported %v", got, exp.WastedWork)})
		}
		if got := tl.LostWork(); got > exp.LostWork*(1+tol)+tol {
			vs = append(vs, Violation{Kind: WorkConservation, Worker: -1, Task: -1,
				Detail: fmt.Sprintf("traced killed work %v exceeds reported lost %v", got, exp.LostWork)})
		}
	}

	measured := tl.CommVolume()
	if exp.HasComm && !approxEqual(measured, exp.ShippedData, tol) {
		vs = append(vs, Violation{Kind: CommVolume, Worker: -1, Task: -1,
			Detail: fmt.Sprintf("traced comm volume %v ≠ reported shipped %v", measured, exp.ShippedData)})
	}
	switch exp.BoundKind {
	case BoundExact:
		if !approxEqual(measured, exp.Bound, tol) {
			vs = append(vs, Violation{Kind: CommVolume, Worker: -1, Task: -1,
				Detail: fmt.Sprintf("traced comm volume %v ≠ %s = %v", measured, exp.boundName(), exp.Bound)})
		}
	case BoundUpper:
		if measured > exp.Bound*(1+tol) {
			vs = append(vs, Violation{Kind: CommVolume, Worker: -1, Task: -1,
				Detail: fmt.Sprintf("traced comm volume %v exceeds %s = %v", measured, exp.boundName(), exp.Bound)})
		}
	case BoundLower:
		if measured < exp.Bound*(1-tol) {
			vs = append(vs, Violation{Kind: CommVolume, Worker: -1, Task: -1,
				Detail: fmt.Sprintf("traced comm volume %v below %s = %v", measured, exp.boundName(), exp.Bound)})
		}
	}

	if exp.ImbalanceTarget > 0 {
		if e := tl.Imbalance(); e > exp.ImbalanceTarget*(1+tol) {
			vs = append(vs, Violation{Kind: ImbalanceExceeded, Worker: -1, Task: -1,
				Detail: fmt.Sprintf("compute imbalance %v above target %v", e, exp.ImbalanceTarget)})
		}
	}
	if exp.LinkCapacity > 0 {
		vs = append(vs, checkLinkCapacity(tl, exp.LinkCapacity, tol)...)
	}
	if len(exp.Edges) > 0 {
		vs = append(vs, checkEdges(tl, exp, tol)...)
	}
	if exp.ExactlyOnce {
		vs = append(vs, checkExactlyOnce(tl)...)
	}
	return vs
}

// relayWorker returns the relay's destination worker when it is a valid
// row of the timeline, else -1 — violations must always address a real
// worker or the run.
func relayWorker(tl *Timeline, r Relay) int {
	if r.Dest >= 0 && r.Dest < len(tl.Spans) {
		return r.Dest
	}
	return -1
}

// badRelay returns a description of what is malformed about the relay,
// or "" for a well-formed one. Relays carry no monotonicity requirement:
// concurrent workers book hops interleaved, so recording order is not
// time order.
func badRelay(r Relay) string {
	for _, f := range []struct {
		name  string
		value float64
	}{{"start", r.Start}, {"end", r.End}, {"data", r.Data}} {
		if math.IsNaN(f.value) || math.IsInf(f.value, 0) {
			return fmt.Sprintf("has non-finite %s %v", f.name, f.value)
		}
	}
	if r.Edge < 0 {
		return fmt.Sprintf("occupies negative edge %d", r.Edge)
	}
	if r.Start < 0 {
		return fmt.Sprintf("starts at negative time %v", r.Start)
	}
	if r.End < r.Start {
		return fmt.Sprintf("has negative duration [%v,%v]", r.Start, r.End)
	}
	if r.Data < 0 {
		return fmt.Sprintf("has negative volume (data %v)", r.Data)
	}
	return ""
}

// checkEdges audits every declared topology edge: a capacity sweep-line
// over the traffic occupying it — delivery Comm spans routed onto it via
// exp.Routes plus relay windows naming it — and, per edge with
// HasVolume, a volume ledger against the executor's booking totals. The
// sweep uses the same event discipline as checkLinkCapacity (ends
// processed before starts at equal times), so back-to-back hop windows
// booked by a correct store-and-forward executor never trip it.
func checkEdges(tl *Timeline, exp *Expect, tol float64) []Violation {
	var vs []Violation
	type event struct {
		t    float64
		rate float64
	}
	ne := len(exp.Edges)
	evs := make([][]event, ne)
	vols := make([]float64, ne)

	// addWindow books one traffic window onto edge e; kind labels it in
	// violations ("span"/"relay"), w addresses the offending worker.
	addWindow := func(e int, start, end, data float64, w, task int, kind string) {
		if e < 0 || e >= ne {
			vs = append(vs, Violation{Kind: BadSpan, Worker: w, Task: task,
				Detail: fmt.Sprintf("%s occupies unknown edge %d (%d edges declared)", kind, e, ne)})
			return
		}
		if data <= 0 {
			return
		}
		vols[e] += data
		cap := exp.Edges[e].Capacity
		if cap <= 0 {
			return // uncapped edge: volume accounting only
		}
		if end <= start {
			vs = append(vs, Violation{Kind: EdgeCapacityExceeded, Worker: w, Task: task,
				Detail: fmt.Sprintf("%s ships %v data units over edge %s in zero time (infinite rate, capacity %v)",
					kind, data, exp.Edges[e].Name, cap)})
			return
		}
		r := data / (end - start)
		evs[e] = append(evs[e], event{start, r}, event{end, -r})
	}

	for w, spans := range tl.Spans {
		var route []int
		if w < len(exp.Routes) {
			route = exp.Routes[w]
		}
		if len(route) == 0 {
			continue // unconstrained worker: no modeled edge occupied
		}
		for _, s := range spans {
			if s.Kind != Comm {
				continue
			}
			for _, e := range route {
				addWindow(e, s.Start, s.End, s.Data, w, s.Task, "comm span")
			}
		}
	}
	for _, r := range tl.Relays {
		addWindow(r.Edge, r.Start, r.End, r.Data, relayWorker(tl, r), r.Task, "relay")
	}

	for e := 0; e < ne; e++ {
		edge := exp.Edges[e]
		if len(evs[e]) > 0 {
			sort.Slice(evs[e], func(i, j int) bool {
				if evs[e][i].t != evs[e][j].t {
					return evs[e][i].t < evs[e][j].t
				}
				return evs[e][i].rate < evs[e][j].rate // ends before starts
			})
			run, worst, worstAt := 0.0, 0.0, 0.0
			for _, ev := range evs[e] {
				run += ev.rate
				if run > worst {
					worst, worstAt = run, ev.t
				}
			}
			if worst > edge.Capacity*(1+tol) {
				vs = append(vs, Violation{Kind: EdgeCapacityExceeded, Worker: -1, Task: -1,
					Detail: fmt.Sprintf("edge %s transfer rate peaks at %v (t=%v), above capacity %v",
						edge.Name, worst, worstAt, edge.Capacity)})
			}
		}
		if edge.HasVolume && !approxEqual(vols[e], edge.Volume, tol) {
			vs = append(vs, Violation{Kind: CommVolume, Worker: -1, Task: -1,
				Detail: fmt.Sprintf("edge %s traced volume %v ≠ booked %v", edge.Name, vols[e], edge.Volume)})
		}
	}
	return vs
}

// checkExactlyOnce flags every task id committed by more than one OK
// Compute span — the invariant a resilient executor must uphold no
// matter how many times retries, speculation or reclamation re-issued
// the task.
func checkExactlyOnce(tl *Timeline) []Violation {
	var vs []Violation
	committedBy := map[int]int{} // task → worker of the first OK commit
	for w, spans := range tl.Spans {
		for _, s := range spans {
			if s.Kind != Compute || s.Outcome != OK || s.Task < 0 {
				continue
			}
			if first, dup := committedBy[s.Task]; dup {
				vs = append(vs, Violation{Kind: DuplicateCommit, Worker: w, Task: s.Task,
					Detail: fmt.Sprintf("task committed twice (first by worker %d)", first)})
				continue
			}
			committedBy[s.Task] = w
		}
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i].Task < vs[j].Task })
	return vs
}

// checkLinkCapacity sweeps the comm spans of every worker and verifies
// that at no instant the summed average transfer rate exceeds the
// aggregate link bandwidth. Each span with positive duration contributes
// Data/Duration over [Start, End); span boundaries that touch exactly do
// not overlap (ends are processed before starts at equal times).
func checkLinkCapacity(tl *Timeline, capacity, tol float64) []Violation {
	var vs []Violation
	type event struct {
		t    float64
		rate float64 // positive at span start, negative at span end
	}
	var evs []event
	for w, spans := range tl.Spans {
		for i, s := range spans {
			if s.Kind != Comm || s.Data <= 0 {
				continue
			}
			if s.Duration() <= 0 {
				vs = append(vs, Violation{Kind: LinkCapacityExceeded, Worker: w, Task: s.Task,
					Detail: fmt.Sprintf("span %d ships %v data units in zero time (infinite rate, capacity %v)", i, s.Data, capacity)})
				continue
			}
			r := s.Data / s.Duration()
			evs = append(evs, event{s.Start, r}, event{s.End, -r})
		}
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].t != evs[j].t {
			return evs[i].t < evs[j].t
		}
		return evs[i].rate < evs[j].rate // ends before starts at equal times
	})
	run, worst, worstAt := 0.0, 0.0, 0.0
	for _, e := range evs {
		run += e.rate
		if run > worst {
			worst, worstAt = run, e.t
		}
	}
	if worst > capacity*(1+tol) {
		vs = append(vs, Violation{Kind: LinkCapacityExceeded, Worker: -1, Task: -1,
			Detail: fmt.Sprintf("aggregate transfer rate peaks at %v (t=%v), above link capacity %v", worst, worstAt, capacity)})
	}
	return vs
}

func (e *Expect) boundName() string {
	if e.BoundName == "" {
		return "bound"
	}
	return e.BoundName
}

// badSpan returns a description of what is malformed about the span, or
// "" for a well-formed one.
func badSpan(s Span) string {
	for _, f := range []struct {
		name  string
		value float64
	}{{"start", s.Start}, {"end", s.End}, {"data", s.Data}, {"work", s.Work}} {
		if math.IsNaN(f.value) || math.IsInf(f.value, 0) {
			return fmt.Sprintf("has non-finite %s %v", f.name, f.value)
		}
	}
	if s.Start < 0 {
		return fmt.Sprintf("starts at negative time %v", s.Start)
	}
	if s.End < s.Start {
		return fmt.Sprintf("has negative duration [%v,%v]", s.Start, s.End)
	}
	if s.Data < 0 || s.Work < 0 {
		return fmt.Sprintf("has negative volume (data %v, work %v)", s.Data, s.Work)
	}
	return ""
}

// Must converts a violation list into a single error (nil when clean) —
// for executors and experiments that want the oracle on their hot path.
func Must(vs []Violation) error {
	if len(vs) == 0 {
		return nil
	}
	lines := make([]string, len(vs))
	for i, v := range vs {
		lines[i] = v.String()
	}
	return fmt.Errorf("trace: %d invariant violation(s):\n  %s", len(vs), strings.Join(lines, "\n  "))
}
