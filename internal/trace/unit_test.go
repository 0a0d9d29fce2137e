package trace

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestStringers(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{Comm.String(), "comm"},
		{Compute.String(), "compute"},
		{SpanKind(9).String(), "kind(9)"},
		{OK.String(), "ok"},
		{Dropped.String(), "dropped"},
		{Killed.String(), "killed"},
		{Wasted.String(), "wasted"},
		{Outcome(9).String(), "outcome(9)"},
		{MarkCrash.String(), "crash"},
		{MarkRecover.String(), "recover"},
		{MarkDrop.String(), "drop"},
		{MarkerKind(9).String(), "marker(9)"},
		{BadSpan.String(), "bad-span"},
		{OverlapCompute.String(), "overlap-compute"},
		{OverlapComm.String(), "overlap-comm"},
		{NonMonotone.String(), "non-monotone"},
		{WorkConservation.String(), "work-conservation"},
		{CommVolume.String(), "comm-volume"},
		{ImbalanceExceeded.String(), "imbalance"},
		{ViolationKind(99).String(), "violation(99)"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("got %q want %q", c.got, c.want)
		}
	}
}

func TestTimelineAccounting(t *testing.T) {
	tl := New(2)
	tl.Add(0, Span{Kind: Comm, Start: 0, End: 1, Data: 4, Task: 0})
	tl.Add(0, Span{Kind: Compute, Start: 1, End: 3, Work: 8, Task: 0})
	tl.Add(1, Span{Kind: Comm, Start: 0, End: 2, Data: 4, Task: 1, Outcome: Dropped})
	tl.Add(1, Span{Kind: Comm, Start: 2, End: 4, Data: 4, Task: 1})
	tl.Add(1, Span{Kind: Compute, Start: 4, End: 6, Work: 6, Task: 1})
	tl.Add(1, Span{Kind: Compute, Start: 6, End: 7, Work: 2, Task: 2, Outcome: Wasted})
	tl.Add(1, Span{Kind: Compute, Start: 7, End: 8, Work: 1, Task: 3, Outcome: Killed})
	tl.Mark(Marker{Kind: MarkDrop, Worker: 1, Time: 2})

	if got := tl.Workers(); got != 2 {
		t.Errorf("Workers = %d", got)
	}
	if got := tl.CommVolume(); got != 12 {
		t.Errorf("CommVolume = %v, want 12 (dropped shipments count)", got)
	}
	if got := tl.UsefulWork(); got != 14 {
		t.Errorf("UsefulWork = %v, want 14", got)
	}
	if got := tl.WastedWork(); got != 2 {
		t.Errorf("WastedWork = %v", got)
	}
	if got := tl.LostWork(); got != 1 {
		t.Errorf("LostWork = %v", got)
	}
	if tl.Makespan != 8 {
		t.Errorf("Makespan = %v", tl.Makespan)
	}
	ct := tl.ComputeTimes()
	if ct[0] != 2 || ct[1] != 4 {
		t.Errorf("ComputeTimes = %v", ct)
	}
	if got, want := tl.Imbalance(), 1.0; got != want {
		t.Errorf("Imbalance = %v, want %v", got, want)
	}
	if got := MetricsOf(tl).Utilization; got != 6.0/16 {
		t.Errorf("Utilization = %v", got)
	}

	tl.Shift(1.5)
	if tl.Makespan != 9.5 || tl.Spans[0][0].Start != 1.5 || tl.Marks[0].Time != 3.5 {
		t.Errorf("Shift misplaced: makespan %v span0 %v mark %v", tl.Makespan, tl.Spans[0][0], tl.Marks[0])
	}
}

func TestImbalanceEdges(t *testing.T) {
	if got := New(2).Imbalance(); got != 0 {
		t.Errorf("empty imbalance = %v", got)
	}
	tl := New(2)
	tl.Add(0, Span{Kind: Compute, Start: 0, End: 1, Work: 1})
	if got := tl.Imbalance(); !math.IsInf(got, 1) {
		t.Errorf("one-idle-worker imbalance = %v, want +Inf", got)
	}
	if got := MetricsOf(New(0)).Utilization; got != 0 {
		t.Errorf("empty utilization = %v", got)
	}
	if New(-3).Workers() != 0 {
		t.Error("negative worker count should clamp to 0")
	}
}

func TestCheckStructural(t *testing.T) {
	find := func(vs []Violation, k ViolationKind) bool {
		for _, v := range vs {
			if v.Kind == k {
				return true
			}
		}
		return false
	}

	t.Run("clean", func(t *testing.T) {
		tl := New(1)
		tl.Add(0, Span{Kind: Comm, Start: 0, End: 1, Data: 1})
		tl.Add(0, Span{Kind: Compute, Start: 0.5, End: 2, Work: 1}) // comm/compute overlap is pipelining, legal
		if vs := Check(tl, nil); len(vs) != 0 {
			t.Errorf("clean timeline flagged: %v", vs)
		}
	})
	t.Run("overlap-compute", func(t *testing.T) {
		tl := New(1)
		tl.Add(0, Span{Kind: Compute, Start: 0, End: 2, Work: 1})
		tl.Add(0, Span{Kind: Compute, Start: 1, End: 3, Work: 1})
		if vs := Check(tl, nil); !find(vs, OverlapCompute) {
			t.Errorf("missed compute overlap: %v", vs)
		}
	})
	t.Run("overlap-comm", func(t *testing.T) {
		tl := New(1)
		tl.Add(0, Span{Kind: Comm, Start: 0, End: 2, Data: 1})
		tl.Add(0, Span{Kind: Comm, Start: 1, End: 3, Data: 1})
		if vs := Check(tl, nil); !find(vs, OverlapComm) {
			t.Errorf("missed comm overlap: %v", vs)
		}
	})
	t.Run("non-monotone", func(t *testing.T) {
		tl := New(1)
		tl.Add(0, Span{Kind: Compute, Start: 5, End: 6, Work: 1})
		tl.Add(0, Span{Kind: Compute, Start: 1, End: 2, Work: 1})
		if vs := Check(tl, nil); !find(vs, NonMonotone) {
			t.Errorf("missed time travel: %v", vs)
		}
	})
	t.Run("bad-span", func(t *testing.T) {
		for _, s := range []Span{
			{Kind: Compute, Start: math.NaN(), End: 1},
			{Kind: Compute, Start: 0, End: math.Inf(1)},
			{Kind: Compute, Start: -1, End: 1},
			{Kind: Compute, Start: 2, End: 1},
			{Kind: Comm, Start: 0, End: 1, Data: -1},
			{Kind: Compute, Start: 0, End: 1, Work: -1},
		} {
			tl := New(1)
			tl.Add(0, s)
			if vs := Check(tl, nil); !find(vs, BadSpan) {
				t.Errorf("span %+v not flagged: %v", s, vs)
			}
		}
	})
	t.Run("past-makespan", func(t *testing.T) {
		tl := New(1)
		tl.Add(0, Span{Kind: Compute, Start: 0, End: 3, Work: 1})
		tl.Makespan = 2 // an executor lying about its makespan
		if vs := Check(tl, nil); !find(vs, BadSpan) {
			t.Errorf("span past makespan not flagged: %v", vs)
		}
	})
	t.Run("bad-marker", func(t *testing.T) {
		tl := New(1)
		tl.Mark(Marker{Kind: MarkCrash, Worker: 0, Time: -1})
		if vs := Check(tl, nil); !find(vs, NonMonotone) {
			t.Errorf("negative marker time not flagged: %v", vs)
		}
	})
}

func TestCheckExpectations(t *testing.T) {
	mk := func() *Timeline {
		tl := New(2)
		tl.Add(0, Span{Kind: Comm, Start: 0, End: 1, Data: 5, Task: 0})
		tl.Add(0, Span{Kind: Compute, Start: 1, End: 2, Work: 10, Task: 0})
		tl.Add(1, Span{Kind: Comm, Start: 0, End: 1, Data: 5, Task: 1})
		tl.Add(1, Span{Kind: Compute, Start: 1, End: 2, Work: 10, Task: 1})
		return tl
	}
	good := &Expect{
		HasWork: true, TotalWork: 20, ProcessedWork: 20,
		HasComm: true, ShippedData: 10,
		Bound: 10, BoundKind: BoundExact, BoundName: "Comm_hom",
		ImbalanceTarget: 0.01,
	}
	if vs := Check(mk(), good); len(vs) != 0 {
		t.Fatalf("clean run flagged: %v", vs)
	}

	cases := []struct {
		name string
		exp  Expect
		want ViolationKind
	}{
		{"ledger", Expect{HasWork: true, TotalWork: 20, ProcessedWork: 15, UnprocessedWork: 5}, WorkConservation},
		{"sum", Expect{HasWork: true, TotalWork: 25, ProcessedWork: 20}, WorkConservation},
		{"wasted", Expect{HasWork: true, TotalWork: 20, ProcessedWork: 20, WastedWork: 3}, WorkConservation},
		{"shipped", Expect{HasComm: true, ShippedData: 12}, CommVolume},
		{"exact", Expect{Bound: 11, BoundKind: BoundExact}, CommVolume},
		{"upper", Expect{Bound: 9, BoundKind: BoundUpper}, CommVolume},
		{"lower", Expect{Bound: 11, BoundKind: BoundLower}, CommVolume},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			vs := Check(mk(), &c.exp)
			found := false
			for _, v := range vs {
				if v.Kind == c.want {
					found = true
				}
			}
			if !found {
				t.Errorf("want %v, got %v", c.want, vs)
			}
		})
	}

	// Traced killed work exceeding the reported lost work is a lie.
	tl := mk()
	tl.Add(0, Span{Kind: Compute, Start: 2, End: 3, Work: 4, Task: 2, Outcome: Killed})
	vs := Check(tl, &Expect{HasWork: true, TotalWork: 20, ProcessedWork: 20, LostWork: 1})
	found := false
	for _, v := range vs {
		if v.Kind == WorkConservation && strings.Contains(v.Detail, "killed") {
			found = true
		}
	}
	if !found {
		t.Errorf("over-reported killed work not flagged: %v", vs)
	}

	// Imbalance target: make worker 1 compute twice as long.
	tl2 := mk()
	tl2.Spans[1][1].End = 3
	vs2 := Check(tl2, &Expect{ImbalanceTarget: 0.01})
	found = false
	for _, v := range vs2 {
		if v.Kind == ImbalanceExceeded {
			found = true
		}
	}
	if !found {
		t.Errorf("imbalance 1.0 above 0.01 not flagged: %v", vs2)
	}
}

func TestMustAndViolationString(t *testing.T) {
	if Must(nil) != nil {
		t.Error("Must(nil) should be nil")
	}
	v := Violation{Kind: OverlapCompute, Worker: 2, Task: 7, Detail: "boom"}
	if s := v.String(); !strings.Contains(s, "overlap-compute") || !strings.Contains(s, "worker 2") || !strings.Contains(s, "task 7") {
		t.Errorf("String = %q", s)
	}
	err := Must([]Violation{v, {Kind: BadSpan, Worker: -1, Task: -1, Detail: "x"}})
	if err == nil || !strings.Contains(err.Error(), "2 invariant violation(s)") {
		t.Errorf("Must error = %v", err)
	}
}

func TestApproxEqualAndTolerance(t *testing.T) {
	if !approxEqual(1, 1+1e-12, 1e-9) {
		t.Error("tiny gap should pass")
	}
	if approxEqual(1, 1.1, 1e-9) {
		t.Error("10% gap should fail")
	}
	// Tol is relative to the values compared, with no absolute floor: at
	// 1 %, a volume 1.5 % off fails and one 0.5 % off passes, at any scale.
	for _, v := range []float64{1e-3, 1, 4096, 3e9} {
		if approxEqual(1.015*v, v, 0.01) {
			t.Errorf("1.015·%v ≈ %v at Tol 0.01", v, v)
		}
		if !approxEqual(1.005*v, v, 0.01) {
			t.Errorf("1.005·%v ≉ %v at Tol 0.01", v, v)
		}
	}
	if approxEqual(0, 1e-12, 1e-9) {
		t.Error("a nonzero value ≈ 0")
	}
	var nilExp *Expect
	if got := nilExp.tolerance(); got != 1e-9 {
		t.Errorf("nil tolerance = %v", got)
	}
	if got := (&Expect{Tol: 0.5}).tolerance(); got != 0.5 {
		t.Errorf("custom tolerance = %v", got)
	}
	if got := (&Expect{}).boundName(); got != "bound" {
		t.Errorf("default bound name = %q", got)
	}
}

func TestMetricsOf(t *testing.T) {
	tl := New(2)
	tl.Add(0, Span{Kind: Comm, Start: 0, End: 2, Data: 4})
	tl.Add(0, Span{Kind: Compute, Start: 1, End: 3, Work: 6}) // overlaps the comm span: busy union is 3
	tl.Add(1, Span{Kind: Compute, Start: 0, End: 1, Work: 2, Outcome: Wasted})
	m := MetricsOf(tl)
	if m.Makespan != 3 || m.Spans != 3 {
		t.Errorf("makespan %v spans %d", m.Makespan, m.Spans)
	}
	if m.CommTime != 2 || m.ComputeTime != 3 {
		t.Errorf("commTime %v computeTime %v", m.CommTime, m.ComputeTime)
	}
	if m.IdleTime != 2*3-(3+1) {
		t.Errorf("idle = %v, want 2 (union-based)", m.IdleTime)
	}
	if m.UsefulWork != 6 || m.WastedWork != 2 || m.LostWork != 0 {
		t.Errorf("work split: %+v", m)
	}
	if want := 2.0 / 8; m.WastedWorkFraction != want {
		t.Errorf("wastedWorkFraction = %v, want %v", m.WastedWorkFraction, want)
	}
	if m.Utilization != 3.0/6 {
		t.Errorf("utilization = %v", m.Utilization)
	}

	if got := MetricsOf(New(0)); got.Spans != 0 || got.IdleTime != 0 {
		t.Errorf("empty metrics: %+v", got)
	}
}

func TestUnionDuration(t *testing.T) {
	cases := []struct {
		spans []Span
		want  float64
	}{
		{nil, 0},
		{[]Span{{Start: 1, End: 1}}, 0},
		{[]Span{{Start: 0, End: 2}, {Start: 1, End: 3}}, 3},
		{[]Span{{Start: 0, End: 1}, {Start: 2, End: 3}}, 2},
		{[]Span{{Start: 2, End: 3}, {Start: 0, End: 5}}, 5},
	}
	for i, c := range cases {
		if got := unionDuration(c.spans); got != c.want {
			t.Errorf("case %d: union = %v, want %v", i, got, c.want)
		}
	}
}

func TestGantt(t *testing.T) {
	tl := New(2)
	tl.Add(0, Span{Kind: Comm, Start: 0, End: 4, Data: 1})
	tl.Add(0, Span{Kind: Compute, Start: 4, End: 8, Work: 1})
	tl.Add(1, Span{Kind: Comm, Start: 0, End: 2, Data: 1, Outcome: Dropped})
	tl.Add(1, Span{Kind: Compute, Start: 2, End: 4, Work: 1, Outcome: Wasted})
	tl.Add(1, Span{Kind: Compute, Start: 4, End: 6, Work: 1, Outcome: Killed})
	tl.Mark(Marker{Kind: MarkCrash, Worker: 1, Time: 6})
	g := tl.Gantt(40)
	for _, glyph := range []string{"-", "#", "%", "w", "x", "!", "P1", "P2", "t="} {
		if !strings.Contains(g, glyph) {
			t.Errorf("gantt missing %q:\n%s", glyph, g)
		}
	}
	if got := New(1).Gantt(40); got != "(empty timeline)\n" {
		t.Errorf("empty gantt = %q", got)
	}
	if g0 := tl.Gantt(0); !strings.Contains(g0, "P1") {
		t.Errorf("zero width should fall back to default:\n%s", g0)
	}
}

func TestChromeTrace(t *testing.T) {
	tl := New(1)
	tl.Add(0, Span{Kind: Comm, Start: 0, End: 1, Data: 2, Task: 0})
	tl.Add(0, Span{Kind: Compute, Start: 1, End: 2, Work: 3, Task: 0})
	tl.Mark(Marker{Kind: MarkCrash, Worker: 0, Time: 1.5, Note: "permanent"})
	b, err := tl.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(b) {
		t.Fatal("invalid JSON")
	}
	var f struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	// 1 process meta + 1 thread meta + 2 spans + 1 marker.
	if len(f.TraceEvents) != 5 {
		t.Fatalf("got %d events", len(f.TraceEvents))
	}
	phs := map[string]int{}
	for _, e := range f.TraceEvents {
		phs[e.Ph]++
	}
	if phs["M"] != 2 || phs["X"] != 2 || phs["i"] != 1 {
		t.Errorf("event phases: %v", phs)
	}
	// Times are in microseconds: the compute span starts at 1s = 1e6 μs.
	found := false
	for _, e := range f.TraceEvents {
		if e.Ph == "X" && e.Ts == 1e6 {
			found = true
		}
	}
	if !found {
		t.Error("compute span not at ts=1e6")
	}
	// Determinism: identical timelines give identical bytes.
	b2, err := tl.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(b2) {
		t.Error("ChromeTrace is not deterministic")
	}
}
