package trace_test

// FuzzTimelineCheck feeds arbitrary span sets into the invariant checker
// and the renderers: whatever bytes decode to, Check must return a
// deterministic, well-addressed verdict and MetricsOf/Gantt/ChromeTrace
// must not panic. The seed corpus is encoded from real executor runs so
// the fuzzer starts from realistic span layouts.

import (
	"encoding/json"
	"testing"

	"nlfl/internal/dessim"
	"nlfl/internal/faults"
	"nlfl/internal/platform"
	nrt "nlfl/internal/runtime"
	"nlfl/internal/stats"
	"nlfl/internal/trace"
)

// decodeTimeline maps arbitrary bytes onto a timeline: byte 0 picks the
// worker count, each following 8-byte group one span or relay record
// (byte 1 selects: 0 compute span, 1 comm span, 2 relay — starts and
// durations may decode negative to exercise the malformed paths), and
// the tail bytes become markers.
func decodeTimeline(data []byte) *trace.Timeline {
	if len(data) == 0 {
		return trace.New(0)
	}
	p := int(data[0])%8 + 1
	tl := trace.New(p)
	i := 1
	for ; i+8 <= len(data); i += 8 {
		b := data[i : i+8]
		if int(b[1])%3 == 2 {
			r := trace.Relay{
				Edge:  int(b[0]) % 8,
				Dest:  int(b[7]) % p,
				Start: float64(int(b[3])-32) / 8,
				Data:  float64(b[5]) / 4,
				Task:  int(b[6]) - 1,
			}
			r.End = r.Start + float64(int(b[4])-16)/16
			tl.AddRelay(r)
			continue
		}
		s := trace.Span{
			Kind:    trace.SpanKind(int(b[1]) % 2),
			Outcome: trace.Outcome(int(b[2]) % 4),
			Start:   float64(int(b[3])-32) / 8,
			Data:    float64(b[5]) / 4,
			Work:    float64(b[6]) / 4,
			Task:    int(b[7]) - 1,
		}
		s.End = s.Start + float64(int(b[4])-16)/16
		tl.Add(int(b[0])%p, s)
	}
	for ; i < len(data); i++ {
		tl.Mark(trace.Marker{
			Kind:   trace.MarkerKind(int(data[i]) % 3),
			Worker: int(data[i]) % p,
			Time:   float64(int(data[i])-16) / 8,
		})
	}
	return tl
}

// encodeTimeline quantizes a real timeline into the fuzz byte format, for
// the seed corpus. Lossy on purpose: the corpus seeds span *shapes*, not
// exact values.
func encodeTimeline(tl *trace.Timeline) []byte {
	clamp := func(v float64) byte {
		if v < 0 {
			return 0
		}
		if v > 255 {
			return 255
		}
		return byte(v)
	}
	p := tl.Workers()
	if p == 0 {
		return nil
	}
	out := []byte{byte(p - 1)}
	for w, spans := range tl.Spans {
		for _, s := range spans {
			out = append(out,
				byte(w),
				byte(s.Kind),
				byte(s.Outcome),
				clamp(s.Start*8+32),
				clamp((s.End-s.Start)*16+16),
				clamp(s.Data*4),
				clamp(s.Work*4),
				clamp(float64(s.Task+1)),
			)
		}
	}
	for _, r := range tl.Relays {
		out = append(out,
			clamp(float64(r.Edge)),
			2, // relay selector
			0,
			clamp(r.Start*8+32),
			clamp((r.End-r.Start)*16+16),
			clamp(r.Data*4),
			clamp(float64(r.Task+1)),
			clamp(float64(r.Dest)),
		)
	}
	for _, m := range tl.Marks {
		out = append(out, clamp(m.Time*8+16))
	}
	return out
}

func FuzzTimelineCheck(f *testing.F) {
	// Corpus from real runs: a crashy resilient run, a static single-round
	// run under the same faults, and a fault-free speculative run.
	pl, err := platform.Generate(4, platform.ProfileUniform.Distribution(0), stats.NewRNG(7))
	if err != nil {
		f.Fatal(err)
	}
	pool := make([]dessim.Task, 12)
	for i := range pool {
		pool[i] = dessim.Task{Data: 1, Work: 2}
	}
	sc, err := faults.RandomCrashes(4, 2, 3, 7)
	if err != nil {
		f.Fatal(err)
	}
	if rep, err := faults.RunResilientDemandDriven(pl, pool, sc, faults.ResilientOptions{}); err == nil {
		f.Add(encodeTimeline(rep.Trace))
	}
	if rep, err := faults.RunSingleRoundUnderFaults(pl, faults.LinearDLTChunks(pl, 12, 24), sc); err == nil {
		f.Add(encodeTimeline(rep.Trace))
	}
	if rep, err := faults.RunResilientDemandDriven(pl, pool[:9], faults.Scenario{}, faults.ResilientOptions{Speculate: true}); err == nil {
		f.Add(encodeTimeline(rep.Trace))
	}
	// Topology-shaped seeds: a daisy-chain run (relay records on interior
	// hops) and a two-source run (disjoint delivery edges).
	if mp, err := platform.FromSpeeds([]float64{1, 2, 3}); err == nil {
		a := make([]float64, 12)
		b := make([]float64, 12)
		for i := range a {
			a[i], b[i] = float64(i+1), float64(12-i)
		}
		if plan, err := nrt.PlanHet(mp, 12); err == nil {
			for _, topo := range []nrt.Topology{
				nrt.UniformChain(3, 5e4),
				nrt.SplitTwoSource(3, 5e4, 5e4),
			} {
				if rep, err := nrt.Run(plan, a, b, nrt.Options{
					Speeds: mp.Speeds(), WorkPerSecond: 2e5, Topology: topo,
				}); err == nil {
					f.Add(encodeTimeline(rep.Trace))
				}
			}
		}
	}
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1, 0, 200, 5, 8, 8, 2})
	// One handcrafted relay group: edge 1, [0, 0.5), 2 data units, dest 2.
	f.Add([]byte{3, 1, 2, 0, 32, 24, 8, 3, 2})

	f.Fuzz(func(t *testing.T, data []byte) {
		tl := decodeTimeline(data)
		p := tl.Workers()

		vs := trace.Check(tl, nil)
		for _, v := range vs {
			if v.Worker < -1 || v.Worker >= p {
				t.Fatalf("violation addresses worker %d of %d: %v", v.Worker, p, v)
			}
			if v.Detail == "" {
				t.Fatalf("violation with empty detail: %#v", v)
			}
		}
		// Determinism: checking the same timeline twice gives the same
		// verdict, and Must agrees with the list.
		vs2 := trace.Check(tl, nil)
		if len(vs) != len(vs2) {
			t.Fatalf("Check is nondeterministic: %d then %d violations", len(vs), len(vs2))
		}
		for i := range vs {
			if vs[i] != vs2[i] {
				t.Fatalf("violation %d changed: %v then %v", i, vs[i], vs2[i])
			}
		}
		if (trace.Must(vs) == nil) != (len(vs) == 0) {
			t.Fatal("Must disagrees with the violation list")
		}

		// The aggregations and renderers must accept anything that decodes.
		m := trace.MetricsOf(tl)
		if m.Spans < 0 || m.Faults != len(tl.Marks) {
			t.Fatalf("metrics miscount: %+v", m)
		}
		_ = tl.Gantt(40)
		b, err := tl.ChromeTrace()
		if err != nil {
			t.Fatalf("ChromeTrace: %v", err)
		}
		if !json.Valid(b) {
			t.Fatal("ChromeTrace emitted invalid JSON")
		}

		// Checking with a ledger must be equally safe.
		_ = trace.Check(tl, &trace.Expect{
			HasWork: true, TotalWork: m.UsefulWork, ProcessedWork: m.UsefulWork,
			LostWork: m.LostWork, WastedWork: m.WastedWork,
			HasComm: true, ShippedData: m.CommVolume,
			Bound: m.CommVolume, BoundKind: trace.BoundUpper,
			ImbalanceTarget: 0.01,
		})
		// And with the per-edge invariant armed: fewer declared edges than
		// the decoder can address, so the unknown-edge path is reachable.
		vsE := trace.Check(tl, &trace.Expect{
			Edges: []trace.ExpectEdge{
				{Name: "e0", Capacity: 4},
				{Name: "e1"}, // uncapped: volume-only bookkeeping
				{Name: "e2", Capacity: 8, Volume: m.CommVolume, HasVolume: true},
			},
			Routes: [][]int{{0}, {0, 2}, {1}},
		})
		for _, v := range vsE {
			if v.Worker < -1 || v.Worker >= p {
				t.Fatalf("edge violation addresses worker %d of %d: %v", v.Worker, p, v)
			}
		}
	})
}
