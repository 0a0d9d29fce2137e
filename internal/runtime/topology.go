package runtime

import (
	"fmt"
	"math"
	"sync"
)

// This file generalizes the one-port master link into a pluggable
// network topology. The paper's platform is a single-master star; the
// related DLT literature it builds on studies richer shapes — linear
// daisy-chains where data is forwarded hop-by-hop (Gallet–Robert–Vivien's
// linear processor networks) and multi-source networks where several
// masters feed a shared fleet (Cao–Wu–Robertazzi). A Topology describes
// the network as a set of capacity-bounded edges plus a per-worker route;
// the netLink engine books transfer windows onto those edges, and the
// trace oracle audits every edge with a capacity sweep-line
// (trace.Expect.Edges), not just the master's aggregate port.

// Edge is one capacity-bounded network edge.
type Edge struct {
	// Name labels the edge in reports and violations ("master-port",
	// "hop-3", "source-1").
	Name string
	// Capacity is the edge bandwidth in vector elements per second; a
	// value ≤ 0 leaves the edge uncapped (it carries traffic but books no
	// windows).
	Capacity float64
}

// Topology describes a modeled network: a fixed edge set and, per
// worker, the route its input data takes from its source. Implementations
// must be usable as values (no mutable state) — the booking engine keeps
// all mutable state itself.
type Topology interface {
	// Name identifies the topology family ("star", "chain", "two-source").
	Name() string
	// Edges returns the edge set; the index in the slice is the edge id
	// used by Route, trace.Relay.Edge and Report.Edges.
	Edges() []Edge
	// Route returns the edge ids worker w's input traverses, in
	// source→worker order. The last edge is the delivery hop.
	Route(w int) []int
	// StoreAndForward reports the switching discipline: true means a
	// transfer crosses its route hop-by-hop, each hop booking its own
	// window at that edge's rate (daisy-chain forwarding); false means
	// circuit switching — one window held on every route edge
	// simultaneously at the bottleneck rate (the star's one-port model).
	StoreAndForward() bool
	// Validate checks the topology is well-formed for a fleet of
	// `workers` workers.
	Validate(workers int) error
}

// Star is the paper's platform: every worker hangs directly off the
// master. Edge 0 is the shared master port (capacity Aggregate; ≤ 0 =
// unconstrained) and edge 1+w is worker w's own incoming link (uncapped
// when PerWorker is nil or ≤ 0). It is the Topology the runtime builds
// from Options.Link, and reproduces the masterLink booking numerics
// exactly: circuit switching holds the port and the worker link for the
// same window at rate min(Aggregate, PerWorker[w]).
type Star struct {
	// Aggregate is the shared master-port bandwidth (elements/second;
	// ≤ 0 = unconstrained).
	Aggregate float64
	// PerWorker optionally caps each worker's own incoming link; nil or
	// a ≤ 0 entry means uncapped. When non-nil it must have one entry
	// per worker.
	PerWorker []float64
	// Workers is the fleet size the star serves.
	Workers int
}

// Name implements Topology.
func (s Star) Name() string { return "star" }

// Edges implements Topology.
func (s Star) Edges() []Edge {
	edges := make([]Edge, 1+s.Workers)
	edges[0] = Edge{Name: "master-port", Capacity: s.Aggregate}
	for w := 0; w < s.Workers; w++ {
		cap := 0.0
		if w < len(s.PerWorker) {
			cap = s.PerWorker[w]
		}
		edges[1+w] = Edge{Name: fmt.Sprintf("link-%d", w), Capacity: cap}
	}
	return edges
}

// Route implements Topology.
func (s Star) Route(w int) []int { return []int{0, 1 + w} }

// StoreAndForward implements Topology.
func (s Star) StoreAndForward() bool { return false }

// Validate implements Topology.
func (s Star) Validate(workers int) error {
	if s.Workers != workers {
		return fmt.Errorf("runtime: star topology sized for %d workers, platform has %d", s.Workers, workers)
	}
	if len(s.PerWorker) != 0 && len(s.PerWorker) != workers {
		return fmt.Errorf("runtime: star PerWorker has %d entries for %d workers", len(s.PerWorker), workers)
	}
	for i, r := range s.PerWorker {
		if math.IsNaN(r) || math.IsInf(r, 0) {
			return fmt.Errorf("runtime: star PerWorker[%d] is non-finite (%v)", i, r)
		}
	}
	if math.IsNaN(s.Aggregate) || math.IsInf(s.Aggregate, 0) {
		return fmt.Errorf("runtime: star aggregate bandwidth is non-finite (%v)", s.Aggregate)
	}
	return nil
}

// StarFromLink converts a Link configuration into the equivalent Star
// topology (nil when the Link model is disabled) — for layers that
// accept either form (the fleet service's Config).
func StarFromLink(cfg Link, workers int) Topology { return starFromLink(cfg, workers) }

// starFromLink converts the legacy Options.Link configuration into the
// equivalent Star topology (nil Link model → nil topology).
func starFromLink(cfg Link, workers int) Topology {
	if !cfg.Enabled() {
		return nil
	}
	per := make([]float64, len(cfg.PerWorker))
	copy(per, cfg.PerWorker)
	return Star{Aggregate: cfg.ElemsPerSecond, PerWorker: per, Workers: workers}
}

// Chain is a linear daisy-chain: the master feeds worker 0, and worker
// w's input is forwarded through workers 0..w−1. Edge i is the hop into
// worker i with capacity HopRates[i]; worker w's route is edges 0..w.
// Switching is store-and-forward — each hop books its own window, so a
// deep worker's delivery waits for its payload to cross every earlier
// hop, and the intermediate windows are recorded as trace.Relay entries.
type Chain struct {
	// HopRates[i] is the bandwidth of the hop into worker i
	// (elements/second). Every hop must be positive and finite — an
	// uncapped store-and-forward hop has no meaningful window.
	HopRates []float64
}

// UniformChain builds a chain of `workers` hops all at rate
// elements/second.
func UniformChain(workers int, rate float64) Chain {
	hops := make([]float64, workers)
	for i := range hops {
		hops[i] = rate
	}
	return Chain{HopRates: hops}
}

// Name implements Topology.
func (c Chain) Name() string { return "chain" }

// Edges implements Topology.
func (c Chain) Edges() []Edge {
	edges := make([]Edge, len(c.HopRates))
	for i, r := range c.HopRates {
		edges[i] = Edge{Name: fmt.Sprintf("hop-%d", i), Capacity: r}
	}
	return edges
}

// Route implements Topology.
func (c Chain) Route(w int) []int {
	route := make([]int, w+1)
	for i := range route {
		route[i] = i
	}
	return route
}

// StoreAndForward implements Topology.
func (c Chain) StoreAndForward() bool { return true }

// Validate implements Topology.
func (c Chain) Validate(workers int) error {
	if len(c.HopRates) != workers {
		return fmt.Errorf("runtime: chain has %d hops for %d workers", len(c.HopRates), workers)
	}
	for i, r := range c.HopRates {
		if math.IsNaN(r) || math.IsInf(r, 0) || r <= 0 {
			return fmt.Errorf("runtime: chain hop %d rate %v must be positive and finite", i, r)
		}
	}
	return nil
}

// TwoSource is a two-master network: two sources feed a shared fleet
// through disjoint links. Edge 0 is source 0's outgoing link, edge 1 is
// source 1's; Assign[w] names the source feeding worker w. Each source
// link serializes its own workers' transfers one-port style but the two
// sources ship concurrently — the aggregate drain rate is the sum of the
// source rates (Cao–Wu–Robertazzi's multi-source model).
type TwoSource struct {
	// SourceRates are the two source-link bandwidths (elements/second,
	// both positive and finite).
	SourceRates [2]float64
	// Assign[w] ∈ {0, 1} is the source feeding worker w; must have one
	// entry per worker.
	Assign []int
}

// SplitTwoSource builds a two-source network over `workers` workers with
// the first half (len/2, rounded down) fed by source 0 at rate0 and the
// rest by source 1 at rate1.
func SplitTwoSource(workers int, rate0, rate1 float64) TwoSource {
	assign := make([]int, workers)
	for w := workers / 2; w < workers; w++ {
		assign[w] = 1
	}
	return TwoSource{SourceRates: [2]float64{rate0, rate1}, Assign: assign}
}

// Name implements Topology.
func (t TwoSource) Name() string { return "two-source" }

// Edges implements Topology.
func (t TwoSource) Edges() []Edge {
	return []Edge{
		{Name: "source-0", Capacity: t.SourceRates[0]},
		{Name: "source-1", Capacity: t.SourceRates[1]},
	}
}

// Route implements Topology.
func (t TwoSource) Route(w int) []int { return []int{t.Assign[w]} }

// StoreAndForward implements Topology.
func (t TwoSource) StoreAndForward() bool { return false }

// Validate implements Topology.
func (t TwoSource) Validate(workers int) error {
	if len(t.Assign) != workers {
		return fmt.Errorf("runtime: two-source assignment has %d entries for %d workers", len(t.Assign), workers)
	}
	for i, r := range t.SourceRates {
		if math.IsNaN(r) || math.IsInf(r, 0) || r <= 0 {
			return fmt.Errorf("runtime: two-source rate %d (%v) must be positive and finite", i, r)
		}
	}
	for w, s := range t.Assign {
		if s != 0 && s != 1 {
			return fmt.Errorf("runtime: worker %d assigned to source %d (must be 0 or 1)", w, s)
		}
	}
	return nil
}

// bookedWindow is one reserved transfer window on one edge.
type bookedWindow struct {
	edge       int
	start, end float64
}

// netLink books transfers onto a topology's edges. It generalizes the
// old masterLink: per edge it keeps a next-free instant, a booked-volume
// ledger and a busy-seconds total. Circuit-switched routes (star,
// two-source) book one window at the bottleneck rate holding every
// capped route edge simultaneously — for a star this reproduces
// masterLink's numerics bit for bit. Store-and-forward routes (chain)
// book one window per hop sequentially: hop k starts at the latest of
// hop k−1's end and edge k's next-free instant, and the last hop is the
// delivery window while earlier hops are relays. Workers sleep until
// their delivery window has elapsed, so measured makespans include the
// modeled transfer time and the recorded spans/relays tile each edge's
// timeline exactly — which is what lets trace.Check enforce the
// per-edge capacity invariant tightly.
type netLink struct {
	name   string
	sf     bool
	edges  []Edge
	routes [][]int // routes[w]: worker w's edge ids, source→worker order
	capped [][]int // capped[w]: the subset of routes[w] with Capacity > 0

	mu   sync.Mutex
	free []float64 // per-edge next-free instant (clock seconds)
	vol  []float64 // per-edge booked elements, dropped payloads included
	busy []float64 // per-edge summed window seconds (capped edges only)
	clk  Clock
	// slowdown, when set, scales the effective rate of a transfer to
	// worker w booked at clock instant t (the chaos layer's LinkSlow
	// realization: factor < 1 stretches the booked window). Sampled once
	// at booking time and applied to the delivery hop; a window boundary
	// crossing mid-transfer does not re-rate the transfer.
	slowdown func(w int, t float64) float64
}

// newNetLink builds the booking state for the topology; nil when no
// worker's route has any capped edge (the model costs nothing).
func newNetLink(topo Topology, workers int, clk Clock) *netLink {
	if topo == nil {
		return nil
	}
	edges := topo.Edges()
	nl := &netLink{
		name:   topo.Name(),
		sf:     topo.StoreAndForward(),
		edges:  edges,
		routes: make([][]int, workers),
		capped: make([][]int, workers),
		free:   make([]float64, len(edges)),
		vol:    make([]float64, len(edges)),
		busy:   make([]float64, len(edges)),
		clk:    clk,
	}
	any := false
	for w := 0; w < workers; w++ {
		route := append([]int(nil), topo.Route(w)...)
		nl.routes[w] = route
		for _, e := range route {
			if edges[e].Capacity > 0 {
				nl.capped[w] = append(nl.capped[w], e)
				any = true
			}
		}
	}
	if !any {
		return nil
	}
	return nl
}

// constrained reports whether worker w's route has any capped edge. An
// unconstrained worker takes the memcpy path: its transfers occupy no
// modeled edge and book no window.
func (nl *netLink) constrained(w int) bool { return len(nl.capped[w]) > 0 }

// book reserves the transfer windows of elems elements for worker w and
// returns the delivery window plus any intermediate relay windows (in
// hop order; empty for circuit routes). It never sleeps; the caller
// sleeps on the clock until the delivery window's end.
func (nl *netLink) book(w int, elems float64) (delivery bookedWindow, relays []bookedWindow) {
	route, capped := nl.routes[w], nl.capped[w]
	nl.mu.Lock()
	defer nl.mu.Unlock()
	t := nl.clk.Now()
	slow := 1.0
	if nl.slowdown != nil {
		if f := nl.slowdown(w, t); f > 0 && f < 1 {
			slow = f
		}
	}
	for _, e := range route {
		nl.vol[e] += elems
	}
	if !nl.sf {
		// Circuit switching: one window at the bottleneck rate, held on
		// every capped route edge simultaneously.
		rate := math.Inf(1)
		for _, e := range capped {
			if c := nl.edges[e].Capacity; c < rate {
				rate = c
			}
		}
		rate *= slow
		dur := elems / rate
		start := t
		for _, e := range capped {
			if nl.free[e] > start {
				start = nl.free[e]
			}
		}
		end := start + dur
		for _, e := range capped {
			nl.free[e] = end
			nl.busy[e] += dur
		}
		return bookedWindow{edge: route[len(route)-1], start: start, end: end}, nil
	}
	// Store-and-forward: sequential hop windows; the payload cannot enter
	// hop k before it has fully crossed hop k−1.
	prev := t
	wins := make([]bookedWindow, len(route))
	for i, e := range route {
		rate := nl.edges[e].Capacity
		if i == len(route)-1 {
			rate *= slow
		}
		dur := elems / rate
		start := prev
		if nl.free[e] > start {
			start = nl.free[e]
		}
		end := start + dur
		nl.free[e] = end
		nl.busy[e] += dur
		wins[i] = bookedWindow{edge: e, start: start, end: end}
		prev = end
	}
	return wins[len(wins)-1], wins[:len(wins)-1]
}

// snapshot returns copies of the per-edge volume and busy ledgers.
func (nl *netLink) snapshot() (vol, busy []float64) {
	nl.mu.Lock()
	defer nl.mu.Unlock()
	vol = append([]float64(nil), nl.vol...)
	busy = append([]float64(nil), nl.busy...)
	return vol, busy
}

// spanRoutes returns, per worker, the edge ids the worker's delivery
// Comm spans occupy — the full route for circuit switching, only the
// final hop for store-and-forward (earlier hops are relays), nil for an
// unconstrained worker. This is exactly trace.Expect.Routes.
func (nl *netLink) spanRoutes() [][]int {
	out := make([][]int, len(nl.routes))
	for w, route := range nl.routes {
		if !nl.constrained(w) {
			continue
		}
		if nl.sf {
			out[w] = []int{route[len(route)-1]}
			continue
		}
		out[w] = append([]int(nil), route...)
	}
	return out
}

// EdgeReport is one edge's measured traffic in a Report.
type EdgeReport struct {
	// Name is the topology's edge label.
	Name string `json:"name"`
	// Capacity is the modeled bandwidth (0 = uncapped).
	Capacity float64 `json:"capacity"`
	// Volume is the elements booked onto the edge, dropped payloads
	// included — the master paid for them either way.
	Volume float64 `json:"volume"`
	// BusySeconds is the summed duration of the edge's booked windows.
	// Capped edges book disjoint windows so this is also their occupied
	// time; uncapped edges book no windows and report 0.
	BusySeconds float64 `json:"busySeconds"`
	// Utilization is BusySeconds over the run's makespan (0 for uncapped
	// edges). Unlike the legacy aggregate-capacity LinkUtilization this
	// is meaningful per edge on any topology.
	Utilization float64 `json:"utilization"`
}

// edgeReports assembles the per-edge report rows for a run of the given
// makespan.
func (nl *netLink) edgeReports(makespan float64) []EdgeReport {
	vol, busy := nl.snapshot()
	out := make([]EdgeReport, len(nl.edges))
	for i, e := range nl.edges {
		r := EdgeReport{Name: e.Name, Capacity: math.Max(e.Capacity, 0), Volume: vol[i], BusySeconds: busy[i]}
		if makespan > 0 {
			r.Utilization = busy[i] / makespan
		}
		out[i] = r
	}
	return out
}
