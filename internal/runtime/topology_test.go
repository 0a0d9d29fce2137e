package runtime

import (
	"math"
	"strings"
	"testing"

	"nlfl/internal/faults"
	"nlfl/internal/matmul"
	"nlfl/internal/platform"
	"nlfl/internal/trace"
)

// topoFor builds one of the three sweep topologies with every capacity
// set from bw: a star with aggregate bw, a uniform chain with bw per
// hop, or a two-source network with bw per source.
func topoFor(kind string, workers int, bw float64) Topology {
	switch kind {
	case "star":
		return Star{Aggregate: bw, Workers: workers}
	case "chain":
		return UniformChain(workers, bw)
	case "two-source":
		return SplitTwoSource(workers, bw, bw)
	default:
		panic("unknown topology kind " + kind)
	}
}

func TestTopologyOptionValidation(t *testing.T) {
	pl, err := platform.FromSpeeds([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	a, b := chaosVectors(t, n, 1)
	plan, err := PlanHom(pl, n)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opts Options
		want string
	}{
		{"topology+link", Options{Speeds: pl.Speeds(), Link: Link{ElemsPerSecond: 1e5}, Topology: UniformChain(3, 1e5)}, "mutually exclusive"},
		{"chain wrong size", Options{Speeds: pl.Speeds(), Topology: UniformChain(2, 1e5)}, "chain has 2 hops"},
		{"chain zero hop", Options{Speeds: pl.Speeds(), Topology: Chain{HopRates: []float64{1e5, 0, 1e5}}}, "must be positive"},
		{"star wrong size", Options{Speeds: pl.Speeds(), Topology: Star{Aggregate: 1e5, Workers: 2}}, "sized for 2 workers"},
		{"two-source wrong assign len", Options{Speeds: pl.Speeds(), Topology: TwoSource{SourceRates: [2]float64{1e5, 1e5}, Assign: []int{0, 1}}}, "2 entries"},
		{"two-source bad source", Options{Speeds: pl.Speeds(), Topology: TwoSource{SourceRates: [2]float64{1e5, 1e5}, Assign: []int{0, 1, 2}}}, "must be 0 or 1"},
		{"two-source zero rate", Options{Speeds: pl.Speeds(), Topology: TwoSource{SourceRates: [2]float64{1e5, 0}, Assign: []int{0, 0, 1}}}, "must be positive"},
	}
	for _, tc := range cases {
		if _, err := Run(plan, a, b, tc.opts); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestStarViaTopologyMatchesLink pins the refactor's zero-behavior-change
// contract: an explicit Star topology and the legacy Options.Link produce
// the same booking numerics — same delivered volume, same modeled comm
// time — and both pass the oracle with the per-edge invariant armed.
func TestStarViaTopologyMatchesLink(t *testing.T) {
	pl := snappedPlatform(t)
	const (
		n  = 64
		bw = 2e5
	)
	a, b := chaosVectors(t, n, 7)
	plan, err := PlanHom(pl, n)
	if err != nil {
		t.Fatal(err)
	}
	base := Options{Speeds: pl.Speeds(), WorkPerSecond: 2e5, VerifyEvery: 101}

	viaLink := base
	viaLink.Link = Link{ElemsPerSecond: bw}
	repLink, err := Run(plan, a, b, viaLink)
	if err != nil {
		t.Fatal(err)
	}
	viaTopo := base
	viaTopo.Topology = Star{Aggregate: bw, Workers: len(pl.Speeds())}
	repTopo, err := Run(plan, a, b, viaTopo)
	if err != nil {
		t.Fatal(err)
	}

	for _, rep := range []*Report{repLink, repTopo} {
		if rep.Topology != "star" {
			t.Errorf("topology = %q, want star", rep.Topology)
		}
		if rep.LinkCapacity != bw {
			t.Errorf("link capacity %v, want %v", rep.LinkCapacity, bw)
		}
		if len(rep.Edges) == 0 {
			t.Fatalf("no per-edge report")
		}
		if vs := trace.Check(rep.Trace, rep.Expect(1e-9)); len(vs) != 0 {
			t.Errorf("trace violations: %v", vs)
		}
		if rep.RelayVolume != 0 {
			t.Errorf("star recorded relay volume %v", rep.RelayVolume)
		}
		if got := rep.Edges[0].Volume; got != rep.DataVolume {
			t.Errorf("master-port volume %v ≠ delivered volume %v", got, rep.DataVolume)
		}
		if u := rep.Edges[0].Utilization; u < 0 || u > 1+1e-9 {
			t.Errorf("master-port utilization %v outside [0,1]", u)
		}
	}
	if repLink.DataVolume != repTopo.DataVolume {
		t.Errorf("delivered volume differs: link %v, topology %v", repLink.DataVolume, repTopo.DataVolume)
	}
	// Every transfer books Data/bw on the shared port in both runs, so
	// total comm time matches up to summation order.
	if d := math.Abs(repLink.CommTime - repTopo.CommTime); d > 1e-9*(repLink.CommTime+1) {
		t.Errorf("comm time differs: link %v, topology %v", repLink.CommTime, repTopo.CommTime)
	}
}

// TestChainHetEdgeAccounting runs the owned het plan over a uniform
// daisy-chain and checks the accounting identities the forwarding model
// must satisfy: per-edge volumes match the plan's static edge loads
// exactly, volumes are nonincreasing along the chain (edge i carries
// exactly the chunks owned at depth ≥ i), the relay ledger closes
// (Σ edge volumes = delivered + relayed), the makespan respects the
// hop-serialized delivery floor, and the oracle is clean with the
// per-edge invariant armed.
func TestChainHetEdgeAccounting(t *testing.T) {
	pl, err := platform.FromSpeeds([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	const (
		n  = 24
		bw = 5e4
	)
	a, b := chaosVectors(t, n, 9)
	plan, err := PlanHet(pl, n)
	if err != nil {
		t.Fatal(err)
	}
	topo := UniformChain(len(pl.Speeds()), bw)
	rep, err := Run(plan, a, b, Options{Speeds: pl.Speeds(), WorkPerSecond: 2e5, Topology: topo, VerifyEvery: 53})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Topology != "chain" {
		t.Fatalf("topology = %q, want chain", rep.Topology)
	}
	if vs := trace.Check(rep.Trace, rep.Expect(1e-9)); len(vs) != 0 {
		t.Fatalf("trace violations: %v", vs)
	}
	if rep.RelayVolume <= 0 {
		t.Fatalf("chain run recorded no relay traffic")
	}
	loads, ok := EdgeLoads(plan, topo)
	if !ok {
		t.Fatalf("EdgeLoads not computable for an owned plan")
	}
	edgeSum := 0.0
	for e, er := range rep.Edges {
		if er.Volume != loads[e] {
			t.Errorf("edge %s volume %v ≠ planned load %v", er.Name, er.Volume, loads[e])
		}
		if e > 0 && rep.Edges[e].Volume > rep.Edges[e-1].Volume {
			t.Errorf("edge volumes not monotone: %s carries %v > %s's %v",
				er.Name, er.Volume, rep.Edges[e-1].Name, rep.Edges[e-1].Volume)
		}
		if er.Utilization < 0 || er.Utilization > 1+1e-9 {
			t.Errorf("edge %s utilization %v outside [0,1]", er.Name, er.Utilization)
		}
		edgeSum += er.Volume
	}
	if edgeSum != rep.DataVolume+rep.RelayVolume {
		t.Errorf("edge ledger leaks: Σ edge volumes %v ≠ delivered %v + relayed %v",
			edgeSum, rep.DataVolume, rep.RelayVolume)
	}
	floor, ok := DeliveryFloor(plan, topo)
	if !ok || floor <= 0 {
		t.Fatalf("DeliveryFloor not computable (floor %v, ok %v)", floor, ok)
	}
	if rep.Makespan < floor-1e-9 {
		t.Errorf("makespan %v below the hop-serialized delivery floor %v", rep.Makespan, floor)
	}
	// LinkCapacity is a star-only figure; a chain must not pretend to one.
	if rep.LinkCapacity != 0 {
		t.Errorf("chain reported aggregate LinkCapacity %v", rep.LinkCapacity)
	}
}

// TestTwoSourceEdgeAccounting checks that each source link carries
// exactly its own workers' traffic and the two drains never appear on
// each other's edge.
func TestTwoSourceEdgeAccounting(t *testing.T) {
	pl, err := platform.FromSpeeds([]float64{1, 1, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	const (
		n  = 32
		bw = 5e4
	)
	a, b := chaosVectors(t, n, 13)
	plan, err := PlanHet(pl, n)
	if err != nil {
		t.Fatal(err)
	}
	topo := SplitTwoSource(len(pl.Speeds()), bw, bw)
	rep, err := Run(plan, a, b, Options{Speeds: pl.Speeds(), WorkPerSecond: 2e5, Topology: topo, VerifyEvery: 53})
	if err != nil {
		t.Fatal(err)
	}
	if vs := trace.Check(rep.Trace, rep.Expect(1e-9)); len(vs) != 0 {
		t.Fatalf("trace violations: %v", vs)
	}
	if rep.RelayVolume != 0 {
		t.Errorf("two-source run recorded relay volume %v", rep.RelayVolume)
	}
	loads, ok := EdgeLoads(plan, topo)
	if !ok {
		t.Fatalf("EdgeLoads not computable for an owned plan")
	}
	if len(rep.Edges) != 2 {
		t.Fatalf("two-source reported %d edges", len(rep.Edges))
	}
	for e, er := range rep.Edges {
		if er.Volume != loads[e] {
			t.Errorf("edge %s volume %v ≠ planned load %v", er.Name, er.Volume, loads[e])
		}
		if er.Volume <= 0 {
			t.Errorf("edge %s carried no traffic", er.Name)
		}
	}
	if got := rep.Edges[0].Volume + rep.Edges[1].Volume; got != rep.DataVolume {
		t.Errorf("source volumes %v ≠ delivered volume %v", got, rep.DataVolume)
	}
}

// TestPerWorkerOnlyCapsAuditedPerEdge is the failing-before regression
// for a latent star-only gap: with only per-worker caps (no aggregate),
// Report.LinkCapacity is 0 so the old oracle armed no capacity invariant
// at all — a trace shipping faster than a worker's own link passed. The
// per-edge sweep closes the gap.
func TestPerWorkerOnlyCapsAuditedPerEdge(t *testing.T) {
	pl := snappedPlatform(t)
	const (
		n   = 24
		cap = 1e5
	)
	p := len(pl.Speeds())
	a, b := chaosVectors(t, n, 17)
	plan, err := PlanHom(pl, n)
	if err != nil {
		t.Fatal(err)
	}
	per := make([]float64, p)
	for i := range per {
		per[i] = cap
	}
	rep, err := Run(plan, a, b, Options{Speeds: pl.Speeds(), WorkPerSecond: 2e5, Link: Link{PerWorker: per}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.LinkCapacity != 0 {
		t.Fatalf("per-worker-only caps reported aggregate capacity %v", rep.LinkCapacity)
	}
	if vs := trace.Check(rep.Trace, rep.Expect(1e-9)); len(vs) != 0 {
		t.Fatalf("clean run has violations: %v", vs)
	}

	// Tamper: compress one transfer to 4× its worker's link rate.
	tampered := false
	for w := range rep.Trace.Spans {
		for i, s := range rep.Trace.Spans[w] {
			if s.Kind == trace.Comm && s.Data > 0 && s.Duration() > 0 {
				rep.Trace.Spans[w][i].End = s.Start + s.Duration()/4
				tampered = true
				break
			}
		}
		if tampered {
			break
		}
	}
	if !tampered {
		t.Fatal("no comm span to tamper with")
	}

	// The pre-refactor oracle shape: aggregate capacity only, no edges.
	legacy := rep.Expect(1e-9)
	legacy.Edges = nil
	legacy.Routes = nil
	legacy.HasComm = false // duration tampering does not change volumes
	legacy.BoundKind = 0   // the zero BoundKind skips the bound check
	for _, v := range trace.Check(rep.Trace, legacy) {
		if v.Kind == trace.LinkCapacityExceeded || v.Kind == trace.EdgeCapacityExceeded {
			t.Fatalf("legacy aggregate-only oracle unexpectedly caught the overdrive: %v (regression baseline broken)", v)
		}
	}

	exp := rep.Expect(1e-9)
	exp.HasComm = false
	exp.BoundKind = 0
	found := false
	for _, v := range trace.Check(rep.Trace, exp) {
		if v.Kind == trace.EdgeCapacityExceeded {
			found = true
		}
	}
	if !found {
		t.Fatalf("per-edge sweep missed a transfer at 4× the per-worker cap")
	}
}

// TestTopologyPropertySweep mirrors the 210-case chaos sweep across the
// topology axis: {star, chain, two-source} × {hom, hom/k, het} ×
// {fault-free, chaos} × seeds — 216 runs, every one audited by the
// per-edge oracle with zero violations, the correct product, and (under
// chaos) the closed recovery ledger.
func TestTopologyPropertySweep(t *testing.T) {
	const (
		seeds = 72
		n     = 24
		bw    = 5e4
	)
	// Snapped speeds: fault-free cases assert the exact analytic volume
	// (BoundExact), which only closes when the hom grid hits the closed
	// form with no rounding.
	pl := snappedPlatform(t)
	p := len(pl.Speeds())
	a, b := chaosVectors(t, n, 31)
	want := matmul.VectorOuter(a, b)

	cases := 0
	var degraded, retried, relayed int
	for seed := 0; seed < seeds; seed++ {
		var plan *StrategyPlan
		var err error
		switch seed % 3 {
		case 0:
			plan, err = PlanHom(pl, n)
		case 1:
			plan, err = PlanHomK(pl, n, 0.01, 0)
		default:
			plan, err = PlanHet(pl, n)
		}
		if err != nil {
			t.Fatal(err)
		}
		chaosOn := (seed/3)%2 == 1
		var ch Chaos
		if chaosOn {
			ch = Chaos{MaxRetries: 8, BackoffBase: 2e-4, BackoffMax: 1e-3}
			switch (seed / 6) % 3 {
			case 0:
				sc, err := faults.RandomCrashes(p, 1, 0.002, int64(seed))
				if err != nil {
					t.Fatal(err)
				}
				ch.Scenario = sc
			case 1:
				sc, err := faults.RandomStragglers(p, 2, 0.1, 0.0002, 0.002, int64(seed))
				if err != nil {
					t.Fatal(err)
				}
				ch.Scenario = sc
				ch.SpeculateAfter = 0.001
			default:
				crash, err := faults.RandomCrashes(p, 1, 0.0015, int64(seed))
				if err != nil {
					t.Fatal(err)
				}
				flaky, err := faults.FlakyLinks(p, 1, 0.5, 0, 0.001, int64(seed))
				if err != nil {
					t.Fatal(err)
				}
				ch.Scenario = faults.Scenario{
					Events: append(crash.Events, flaky.Events...),
					Seed:   int64(seed),
				}
				ch.SpeculateAfter = 0.002
			}
		}
		for _, kind := range []string{"star", "chain", "two-source"} {
			cases++
			rep, err := Run(plan, a, b, Options{
				Speeds:        pl.Speeds(),
				WorkPerSecond: 2e5,
				Burst:         1,
				Topology:      topoFor(kind, p, bw),
				Chaos:         ch,
			})
			if err != nil {
				t.Fatalf("seed %d %s/%s: %v", seed, kind, plan.Strategy, err)
			}
			if !want.Equal(rep.Out, 0) {
				t.Fatalf("seed %d %s/%s: wrong product", seed, kind, plan.Strategy)
			}
			exp := rep.Expect(1e-9)
			if len(exp.Edges) == 0 {
				t.Fatalf("seed %d %s/%s: per-edge invariant not armed", seed, kind, plan.Strategy)
			}
			if vs := trace.Check(rep.Trace, exp); len(vs) != 0 {
				t.Fatalf("seed %d %s/%s: trace violations: %v", seed, kind, plan.Strategy, vs)
			}
			if chaosOn {
				if rep.CommittedVolume != rep.ReplannedVolume {
					t.Fatalf("seed %d %s/%s: committed %v ≠ replanned %v",
						seed, kind, plan.Strategy, rep.CommittedVolume, rep.ReplannedVolume)
				}
				if rep.DataVolume != rep.CommittedVolume+rep.WastedData {
					t.Fatalf("seed %d %s/%s: shipping ledger leaks", seed, kind, plan.Strategy)
				}
			}
			switch kind {
			case "chain":
				if rep.RelayVolume > 0 {
					relayed++
				}
			default:
				if rep.RelayVolume != 0 {
					t.Fatalf("seed %d %s/%s: single-hop topology recorded relays", seed, kind, plan.Strategy)
				}
			}
			degraded += rep.DegradedWorkers
			retried += rep.RetriedChunks
		}
	}
	if cases < 200 {
		t.Fatalf("sweep ran %d cases, want ≥ 200", cases)
	}
	// The sweep must actually exercise the machinery, not dodge it.
	if relayed == 0 {
		t.Errorf("no chain run recorded relay traffic across %d cases", cases)
	}
	if degraded == 0 {
		t.Errorf("no crash was realized across %d cases", cases)
	}
	if retried == 0 {
		t.Errorf("no transfer retry across %d cases", cases)
	}
}
