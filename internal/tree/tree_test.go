package tree

import (
	"math"
	"testing"
	"testing/quick"

	"nlfl/internal/dlt"
	"nlfl/internal/platform"
	"nlfl/internal/stats"
)

// star builds a depth-1 tree: a compute-less root feeding p leaves.
func star(speeds, bandwidths []float64) *Node {
	root := &Node{Name: "master", Speed: 1e-12} // effectively no compute
	for i := range speeds {
		root.Children = append(root.Children, &Node{
			Name: "leaf", Speed: speeds[i], Bandwidth: bandwidths[i],
		})
	}
	return root
}

func TestStarMatchesDLTClosedForm(t *testing.T) {
	speeds := []float64{1, 2, 4}
	bws := []float64{2, 1, 3}
	root := star(speeds, bws)
	const n = 300.0
	alloc, err := Allocate(root, n)
	if err != nil {
		t.Fatal(err)
	}
	ws := make([]platform.Worker, len(speeds))
	for i := range ws {
		ws[i] = platform.Worker{Speed: speeds[i], Bandwidth: bws[i]}
	}
	pl, err := platform.New(ws)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := dlt.OptimalParallel(pl, n)
	if err != nil {
		t.Fatal(err)
	}
	// The master's ~zero compute rate perturbs the makespan only by its
	// negligible share.
	if math.Abs(alloc.Makespan-ref.Makespan) > 1e-6*ref.Makespan {
		t.Errorf("tree makespan %v vs star closed form %v", alloc.Makespan, ref.Makespan)
	}
	for i, c := range root.Children {
		want := ref.Fractions[i] * n
		if math.Abs(alloc.Loads[c]-want) > 1e-6*(1+want) {
			t.Errorf("leaf %d load %v vs DLT %v", i, alloc.Loads[c], want)
		}
	}
}

func TestAllocatePreservesTotal(t *testing.T) {
	root := &Node{Speed: 1}
	for i := 0; i < 3; i++ {
		relay := &Node{Speed: 2, Bandwidth: 1}
		for j := 0; j < 2; j++ {
			relay.Children = append(relay.Children, &Node{Speed: 3, Bandwidth: 2})
		}
		root.Children = append(root.Children, relay)
	}
	const n = 500.0
	alloc, err := Allocate(root, n)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(alloc.TotalLoad()-n) > 1e-6 {
		t.Errorf("total load %v, want %v", alloc.TotalLoad(), n)
	}
	if alloc.Makespan <= 0 {
		t.Errorf("makespan %v", alloc.Makespan)
	}
}

func TestEqualFinishTimesThroughoutTree(t *testing.T) {
	r := stats.NewRNG(3)
	root := randomTree(r, 3, 3)
	alloc, err := Allocate(root, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for node, finish := range alloc.finishTime(root) {
		if math.Abs(finish-alloc.Makespan) > 1e-6*alloc.Makespan {
			t.Errorf("node %q finishes at %v, makespan %v", node.Name, finish, alloc.Makespan)
		}
	}
}

// randomTree builds a random tree with the given depth and fanout bound.
func randomTree(r *stats.RNG, depth, fanout int) *Node {
	n := &Node{
		Speed:     0.5 + 4*r.Float64(),
		Bandwidth: 0.5 + 4*r.Float64(),
	}
	if depth > 0 {
		kids := 1 + r.Intn(fanout)
		for i := 0; i < kids; i++ {
			n.Children = append(n.Children, randomTree(r, depth-1, fanout))
		}
	}
	return n
}

func TestDeeperTreesAbsorbMore(t *testing.T) {
	// Adding a subtree can only increase the root's capacity (decrease
	// the makespan).
	base := &Node{Speed: 1}
	base.Children = []*Node{{Speed: 1, Bandwidth: 1}}
	a1, err := Allocate(base, 100)
	if err != nil {
		t.Fatal(err)
	}
	base.Children = append(base.Children, &Node{
		Speed: 1, Bandwidth: 1,
		Children: []*Node{{Speed: 5, Bandwidth: 5}},
	})
	a2, err := Allocate(base, 100)
	if err != nil {
		t.Fatal(err)
	}
	if a2.Makespan >= a1.Makespan {
		t.Errorf("extra subtree should cut the makespan: %v → %v", a1.Makespan, a2.Makespan)
	}
}

func TestRelayLinkThrottlesSubtree(t *testing.T) {
	// A powerful subtree behind a slow ingress link is bounded by that
	// link: R = S/(1+cS) < 1/c = bandwidth.
	relay := &Node{Speed: 100, Bandwidth: 0.5, Children: []*Node{
		{Speed: 100, Bandwidth: 100},
	}}
	if r := relay.rate(); r >= relay.Bandwidth {
		t.Errorf("rate %v must stay below the ingress bandwidth %v", r, relay.Bandwidth)
	}
}

func TestWorkFractionVanishesOnTrees(t *testing.T) {
	// Section 2 on a tree: growing the tree makes the α=2 work fraction
	// collapse, just like on the star.
	prev := 1.1
	for _, fanout := range []int{1, 2, 4, 8} {
		root := &Node{Speed: 1}
		for i := 0; i < fanout; i++ {
			relay := &Node{Speed: 1, Bandwidth: 10}
			for j := 0; j < fanout; j++ {
				relay.Children = append(relay.Children, &Node{Speed: 1, Bandwidth: 10})
			}
			root.Children = append(root.Children, relay)
		}
		alloc, err := Allocate(root, 1000)
		if err != nil {
			t.Fatal(err)
		}
		frac := alloc.WorkFraction(2)
		if frac >= prev {
			t.Errorf("fanout %d: fraction %v did not shrink (prev %v)", fanout, frac, prev)
		}
		prev = frac
	}
	if prev > 0.05 {
		t.Errorf("8×8 tree still claims %v of the quadratic work", prev)
	}
}

func TestValidation(t *testing.T) {
	if _, err := Allocate(&Node{Speed: 0}, 10); err == nil {
		t.Error("zero speed should fail")
	}
	bad := &Node{Speed: 1, Children: []*Node{{Speed: 1, Bandwidth: 0}}}
	if _, err := Allocate(bad, 10); err == nil {
		t.Error("zero bandwidth child should fail")
	}
	if _, err := Allocate(&Node{Speed: 1}, -5); err == nil {
		t.Error("negative load should fail")
	}
	if _, err := Allocate(&Node{Speed: 1}, math.NaN()); err == nil {
		t.Error("NaN load should fail")
	}
	root := &Node{Speed: 2}
	if root.Size() != 1 {
		t.Error("size of singleton")
	}
}

// Property: allocations conserve load, keep every share non-negative, and
// finish times agree with the makespan on random trees.
func TestTreeAllocationProperty(t *testing.T) {
	f := func(seed int64, depthRaw, fanRaw uint8) bool {
		r := stats.NewRNG(seed)
		depth := int(depthRaw%3) + 1
		fanout := int(fanRaw%3) + 1
		root := randomTree(r, depth, fanout)
		const n = 100.0
		alloc, err := Allocate(root, n)
		if err != nil {
			return false
		}
		if math.Abs(alloc.TotalLoad()-n) > 1e-6*n {
			return false
		}
		for _, l := range alloc.Loads {
			if l < 0 || math.IsNaN(l) {
				return false
			}
		}
		for _, finish := range alloc.finishTime(root) {
			if math.Abs(finish-alloc.Makespan) > 1e-6*alloc.Makespan {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// finishTime returns when each node completes its assigned load if data
// starts flowing at time 0 from the root: the equal-finish property of the
// optimal schedule is checked against it.
func (a *Allocation) finishTime(root *Node) map[*Node]float64 {
	out := make(map[*Node]float64, len(a.Loads))
	var walk func(n *Node, start float64)
	walk = func(n *Node, start float64) {
		// Node computes its own share last-ditch: with linear costs the
		// equal-finish schedule has every node computing until the common
		// makespan; its finish is start + w·X₀ only if it computes
		// continuously from `start`.
		out[n] = start + a.Loads[n]/n.Speed
		for _, c := range n.Children {
			// The child's transfer takes cᵢ·(total subtree load).
			sub := subtreeLoad(c, a.Loads)
			walk(c, start+sub/c.Bandwidth)
		}
	}
	walk(root, 0)
	return out
}

// subtreeLoad sums the allocation over a subtree.
func subtreeLoad(n *Node, loads map[*Node]float64) float64 {
	s := loads[n]
	for _, c := range n.Children {
		s += subtreeLoad(c, loads)
	}
	return s
}
