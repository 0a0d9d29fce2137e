// Package tree extends linear Divisible Load Theory from the star
// (single-level tree) of the paper's Section 1.2 to arbitrary multi-level
// trees — the topology family of the non-linear DLT literature the paper
// refutes ("a single level tree network", refs [33, 34]) and of classical
// DLT at large.
//
// Under linear costs, store-and-forward relaying, and parallel links at
// every node, each subtree collapses into an *equivalent processor* with
// a single absorption rate R (load per unit of deadline):
//
//	leaf:      R = 1/(c + w)
//	internal:  S = 1/w₀ + Σ R(child),   R = S/(1 + c₀·S)
//
// where c₀ is the node's ingress cost and w₀ its own unit compute time.
// The optimal single-round schedule gives every node a load that makes
// all finish times equal; the root absorbs N in makespan T = N/S(root).
// This recursion is exactly the classical equivalent-processor reduction,
// and for depth-1 trees it reproduces dlt.OptimalParallel.
//
// The no-free-lunch of Section 2 is topology-free: chunking an α-power
// load loses work on a tree exactly as on a star (see WorkFraction).
package tree

import (
	"errors"
	"fmt"
	"math"
)

// Node is one machine of the tree platform.
type Node struct {
	// Name labels the node in reports (optional).
	Name string
	// Speed is the node's own compute speed (s = 1/w); every node,
	// including relays, may compute.
	Speed float64
	// Bandwidth is the node's ingress link bandwidth (1/c). Ignored for
	// the root (the load originates there).
	Bandwidth float64
	// Children are the subtrees fed by this node.
	Children []*Node
}

// Validate checks speeds and bandwidths throughout the tree.
func (n *Node) Validate(isRoot bool) error {
	if n == nil {
		return errors.New("tree: nil node")
	}
	if n.Speed <= 0 || math.IsNaN(n.Speed) || math.IsInf(n.Speed, 0) {
		return fmt.Errorf("tree: node %q has invalid speed %v", n.Name, n.Speed)
	}
	if !isRoot && (n.Bandwidth <= 0 || math.IsNaN(n.Bandwidth) || math.IsInf(n.Bandwidth, 0)) {
		return fmt.Errorf("tree: node %q has invalid bandwidth %v", n.Name, n.Bandwidth)
	}
	for _, c := range n.Children {
		if err := c.Validate(false); err != nil {
			return err
		}
	}
	return nil
}

// Size returns the number of nodes in the subtree.
func (n *Node) Size() int {
	s := 1
	for _, c := range n.Children {
		s += c.Size()
	}
	return s
}

// capacity returns S(n) = 1/w + Σ R(child): the load the subtree absorbs
// per unit of deadline measured *after* n has received its data.
func (n *Node) capacity() float64 {
	s := n.Speed // 1/w
	for _, c := range n.Children {
		s += c.rate()
	}
	return s
}

// rate returns R(n) = S/(1 + c·S), the equivalent-processor absorption
// rate seen from n's parent (through n's ingress link).
func (n *Node) rate() float64 {
	s := n.capacity()
	cIn := 1 / n.Bandwidth
	return s / (1 + cIn*s)
}

// Allocation maps each node to its assigned load.
type Allocation struct {
	// Loads[node] is the load the node itself computes.
	Loads map[*Node]float64
	// Makespan is the common finish time.
	Makespan float64
}

// Allocate computes the optimal single-round allocation of a linear load
// of size n across the tree rooted at root (whose ingress link is unused:
// the load originates there). All nodes finish at the makespan.
func Allocate(root *Node, n float64) (*Allocation, error) {
	if err := root.Validate(true); err != nil {
		return nil, err
	}
	if n < 0 || math.IsNaN(n) {
		return nil, fmt.Errorf("tree: invalid load %v", n)
	}
	s := root.capacity()
	alloc := &Allocation{Loads: make(map[*Node]float64, root.Size()), Makespan: n / s}
	assign(root, n, alloc.Makespan, alloc.Loads)
	return alloc, nil
}

// assign splits `load` arriving at node (fully received, with `deadline`
// time remaining) between the node's own CPU and its children.
func assign(n *Node, load, deadline float64, out map[*Node]float64) {
	own := n.Speed * deadline // X₀ = deadline/w
	// Scale against rounding: own + Σ child shares must equal load.
	s := n.capacity()
	scale := load / (s * deadline)
	out[n] = own * scale
	for _, c := range n.Children {
		childLoad := c.rate() * deadline * scale
		// The child spends cᵢ·Xᵢ receiving; the rest of the deadline
		// drives its own subtree.
		childDeadline := deadline - childLoad/c.Bandwidth
		assign(c, childLoad, childDeadline, out)
	}
}

// TotalLoad sums all assigned loads (should equal the requested n).
func (a *Allocation) TotalLoad() float64 {
	s := 0.0
	for _, l := range a.Loads {
		s += l
	}
	return s
}

// WorkFraction returns ΣXᵢ^α / N^α for the allocation — the Section 2
// work accounting applied to the tree: for α > 1 it vanishes as the tree
// grows, exactly as on the star. Chunking, not topology, is the
// obstruction.
func (a *Allocation) WorkFraction(alpha float64) float64 {
	n := a.TotalLoad()
	if n == 0 {
		return 0
	}
	s := 0.0
	for _, l := range a.Loads {
		s += math.Pow(l, alpha)
	}
	return s / math.Pow(n, alpha)
}
