package runtime

// This file exports the per-worker resources a layer that keeps its
// workers across many runs (internal/service's fleet) owns: the token
// bucket and the network booker. NewChunkWorker takes them, so a fleet
// worker runs the one chunk step (step.go) a Run's lease engine uses.

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

// Network is the exported topology-aware booker: transfers book
// non-overlapping windows on every capped edge of the worker's route
// exactly as Run's internal model does — circuit style for star and
// two-source networks, hop-by-hop for chains.
type Network struct {
	nl   *netLink
	topo Topology
}

// NewNetwork builds the booking state for topo over `workers` workers,
// booking on clk. A nil topology — or one whose routes have no capped
// edge — yields a disabled network, over which transfers run at memcpy
// speed. A malformed topology is an error.
func NewNetwork(topo Topology, workers int, clk Clock) (*Network, error) {
	if topo != nil {
		if err := topo.Validate(workers); err != nil {
			return nil, err
		}
	}
	return &Network{nl: newNetLink(topo, workers, clk), topo: topo}, nil
}

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

// SpanRoutes returns trace.Expect.Routes for the network: per worker,
// the edge ids its delivery Comm spans occupy (nil when disabled).
func (n *Network) SpanRoutes() [][]int {
	if n.nl == nil {
		return nil
	}
	return n.nl.spanRoutes()
}
