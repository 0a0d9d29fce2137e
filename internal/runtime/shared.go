package runtime

import (
	"context"
	"time"
)

// This file exports the pool's building blocks — the token-bucket
// throttle, the topology-aware network booker and the survivor
// re-planner — for layers that own workers across many runs
// (internal/service's long-lived fleet) instead of spinning a pool per
// job; the rectangle kernel, FillChunk, sits beside the fast path. One
// implementation serves both: a fleet worker is paced, booked and
// re-planned by exactly the code a single Run uses.

// Throttle is the exported token-bucket pacer: it stretches compute to
// the duration a speed-s processor would need (see tokenBucket). One
// Throttle belongs to exactly one goroutine.
type Throttle struct {
	tb *tokenBucket
}

// NewThrottle builds a throttle refilling at rate cells/second; a
// non-positive burst defaults to 5 ms of credit.
func NewThrottle(rate, burst float64) *Throttle {
	return &Throttle{tb: newTokenBucket(rate, burst)}
}

// Acquire blocks until n cells of credit are available and consumes them.
func (t *Throttle) Acquire(n float64) { t.tb.acquire(n) }

// AcquireWithin is Acquire with a sleep budget: false means the budget
// elapsed first and the payment is forfeited (the chunk was cut short).
// A negative budget means no deadline.
func (t *Throttle) AcquireWithin(n float64, budget time.Duration) bool {
	return t.tb.acquireWithin(n, budget)
}

// Window is one booked transfer window on one topology edge, in
// live-clock seconds.
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
	nl    *netLink
	topo  Topology
	clock func() float64
}

// NewNetwork builds the booking state for topo over `workers` workers;
// now supplies the live clock in seconds. A nil topology — or one whose
// routes have no capped edge — yields a network whose Enabled reports
// false and whose Book windows are instant. A malformed topology is an
// error.
func NewNetwork(topo Topology, workers int, now func() float64) (*Network, error) {
	if topo != nil {
		if err := topo.Validate(workers); err != nil {
			return nil, err
		}
	}
	return &Network{nl: newNetLink(topo, workers, now), topo: topo, clock: now}, nil
}

// Enabled reports whether any edge constraint is configured.
func (n *Network) Enabled() bool { return n.nl != nil }

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
// for circuit routes). It never sleeps. On a disabled network or an
// unconstrained worker the delivery window is [now, now] on edge −1.
func (n *Network) Book(w int, elems float64) (delivery Window, relays []Window) {
	if n.nl == nil || !n.nl.constrained(w) {
		t := n.clock()
		return Window{Edge: -1, Start: t, End: t}, nil
	}
	del, rel := n.nl.book(w, elems)
	out := make([]Window, len(rel))
	for i, r := range rel {
		out[i] = Window{Edge: r.edge, Start: r.start, End: r.end}
	}
	return Window{Edge: del.edge, Start: del.start, End: del.end}, out
}

// Wait sleeps until the booked delivery window's end has passed, or
// until ctx is cancelled — false means cancelled.
func (n *Network) Wait(ctx context.Context, end float64) bool {
	if n.nl == nil {
		return ctx.Err() == nil
	}
	return n.nl.wait(ctx, end)
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

// SharedLink is the exported one-port master link, retained as the
// star-shaped façade over Network for callers that only configure a
// Link.
type SharedLink struct {
	net *Network
}

// NewSharedLink builds the booking state for cfg over `workers` links.
// now supplies the live clock in seconds. An unconstrained cfg yields a
// link whose Enabled reports false and whose Book windows are instant.
func NewSharedLink(cfg Link, workers int, now func() float64) *SharedLink {
	// starFromLink yields a valid Star by construction, so NewNetwork
	// cannot fail here.
	net, err := NewNetwork(starFromLink(cfg, workers), workers, now)
	if err != nil {
		panic(err)
	}
	return &SharedLink{net: net}
}

// Enabled reports whether any bandwidth constraint is configured.
func (l *SharedLink) Enabled() bool { return l.net.Enabled() }

// Capacity returns the aggregate shared-port rate (0 when unconstrained).
func (l *SharedLink) Capacity() float64 { return l.net.Capacity() }

// Book reserves the next window of elems elements for worker w and
// returns it in live-clock seconds; it never sleeps. On an unconstrained
// link the window is [now, now].
func (l *SharedLink) Book(w int, elems float64) (start, end float64) {
	del, _ := l.net.Book(w, elems)
	return del.Start, del.End
}

// Wait sleeps until the booked window's end has passed, or until ctx is
// cancelled — false means cancelled.
func (l *SharedLink) Wait(ctx context.Context, end float64) bool {
	return l.net.Wait(ctx, end)
}

// ReplanOwned maps a dead worker's owned rectangle onto the surviving
// workers via the PERI-SUM partition (see replanOwnedChunk): pieces tile
// the lost rectangle exactly, carry Task −1 for the caller to re-number,
// and are owned by owners[i]. With no survivors the whole rectangle is
// returned ownerless.
func ReplanOwned(c Chunk, owners []int, speeds []float64) []Chunk {
	return replanOwnedChunk(c, owners, speeds)
}
