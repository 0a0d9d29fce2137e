package runtime

import "context"

// This file exports the pool's building blocks — the token-bucket
// throttle and the topology-aware network booker, both on a Clock — for
// layers that own workers across many runs (internal/service's
// long-lived fleet) instead of spinning a pool per job; the rectangle
// kernel, FillChunk, sits beside the fast path, and the lease table in
// leasetable.go. One implementation serves both: a fleet worker is
// paced, booked, leased and re-planned by exactly the code a single Run
// uses.

// Throttle is the exported token-bucket pacer: it stretches compute to
// the duration a speed-s processor would need (see tokenBucket). One
// Throttle belongs to exactly one goroutine.
type Throttle struct {
	tb *tokenBucket
}

// NewThrottle builds worker w's throttle on clk, refilling at rate
// cells/second; a non-positive burst defaults to 5 ms of credit.
func NewThrottle(clk Clock, w int, rate, burst float64) *Throttle {
	return &Throttle{tb: newTokenBucket(clk, w, rate, burst)}
}

// AcquireWithin blocks until n cells of credit are available and
// consumes them, by clock instant `until` (+Inf for no deadline): false
// means the deadline came first and the payment is forfeited (the chunk
// was cut short), or ctx was cancelled mid-wait.
func (t *Throttle) AcquireWithin(ctx context.Context, n, until float64) bool {
	return t.tb.acquireWithin(ctx, n, until)
}

// Window is one booked transfer window on one topology edge, in clock
// seconds.
type Window struct {
	// Edge is the topology edge id the window occupies (-1 on a
	// disabled or unconstrained booking).
	Edge       int
	Start, End float64
}

// Network is the exported topology-aware booker: transfers book
// non-overlapping windows on every capped edge of the worker's route
// exactly as Run's internal model does — circuit style for star and
// two-source networks, hop-by-hop for chains.
type Network struct {
	nl   *netLink
	topo Topology
	clk  Clock
}

// NewNetwork builds the booking state for topo over `workers` workers,
// booking on clk. A nil topology — or one whose routes have no capped
// edge — yields a disabled network whose Book windows are instant. A
// malformed topology is an error.
func NewNetwork(topo Topology, workers int, clk Clock) (*Network, error) {
	if topo != nil {
		if err := topo.Validate(workers); err != nil {
			return nil, err
		}
	}
	return &Network{nl: newNetLink(topo, workers, clk), topo: topo, clk: clk}, nil
}

// Constrained reports whether worker w's route has any capped edge —
// false means its transfers take the memcpy path and occupy no modeled
// edge.
func (n *Network) Constrained(w int) bool { return n.nl != nil && n.nl.constrained(w) }

// Topology returns the modeled topology (nil when disabled).
func (n *Network) Topology() Topology {
	if n.nl == nil {
		return nil
	}
	return n.topo
}

// Capacity returns the star aggregate shared-port rate, preserving the
// legacy LinkCapacity semantics; for non-star topologies — where no
// single aggregate figure is meaningful — it returns 0 and callers
// should consult Edges instead.
func (n *Network) Capacity() float64 {
	if n.nl == nil {
		return 0
	}
	if st, ok := n.topo.(Star); ok && st.Aggregate > 0 {
		return st.Aggregate
	}
	return 0
}

// Book reserves the transfer windows of elems elements for worker w: the
// delivery window plus any intermediate relay windows (hop order; empty
// for circuit routes). It never sleeps: the caller sleeps on the clock
// until the delivery window's end. On a disabled network or an
// unconstrained worker the delivery window is [now, now] on edge −1.
func (n *Network) Book(w int, elems float64) (delivery Window, relays []Window) {
	if n.nl == nil || !n.nl.constrained(w) {
		t := n.clk.Now()
		return Window{Edge: -1, Start: t, End: t}, nil
	}
	del, rel := n.nl.book(w, elems)
	out := make([]Window, len(rel))
	for i, r := range rel {
		out[i] = Window{Edge: r.edge, Start: r.start, End: r.end}
	}
	return Window{Edge: del.edge, Start: del.start, End: del.end}, out
}

// EdgeReports returns the per-edge measured traffic for a run of the
// given makespan (nil when disabled).
func (n *Network) EdgeReports(makespan float64) []EdgeReport {
	if n.nl == nil {
		return nil
	}
	return n.nl.edgeReports(makespan)
}

// SpanRoutes returns trace.Expect.Routes for the network: per worker,
// the edge ids its delivery Comm spans occupy (nil when disabled).
func (n *Network) SpanRoutes() [][]int {
	if n.nl == nil {
		return nil
	}
	return n.nl.spanRoutes()
}
