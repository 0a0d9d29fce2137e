package faults

import (
	"math"
	"reflect"
	"testing"
)

func TestScenarioValidation(t *testing.T) {
	bad := []Scenario{
		{Events: []Event{{Kind: Crash, Worker: 5, Time: 1}}},
		{Events: []Event{{Kind: Crash, Worker: 0, Time: -1}}},
		{Events: []Event{{Kind: Crash, Worker: 0, Time: math.Inf(1)}}},
		{Events: []Event{{Kind: Transient, Worker: 0, Time: 2, Until: 2}}},
		{Events: []Event{{Kind: Straggler, Worker: 0, Time: 1, Until: 2, Factor: 0}}},
		{Events: []Event{{Kind: Straggler, Worker: 0, Time: 2, Until: 1, Factor: 0.5}}},
		{Events: []Event{{Kind: LinkSlow, Worker: 0, Time: 1, Until: 2, Factor: 0}}},
		{Events: []Event{{Kind: LinkDrop, Worker: 0, Time: 1, Until: 2, DropProb: 1.5}}},
		{Events: []Event{{Kind: Kind(99), Worker: 0, Time: 1}}},
	}
	for i, sc := range bad {
		if err := sc.Validate(2); err == nil {
			t.Errorf("scenario %d should be invalid", i)
		}
	}
	good := Scenario{Events: []Event{
		{Kind: Crash, Worker: 1, Time: 3},
		{Kind: Transient, Worker: 0, Time: 1, Until: 2},
		{Kind: Straggler, Worker: 0, Time: 4, Until: 9, Factor: 0.1},
		{Kind: LinkSlow, Worker: 1, Time: 0, Until: 1, Factor: 0.5},
		{Kind: LinkDrop, Worker: 0, Time: 0, Until: math.Inf(1), DropProb: 0.3},
	}}
	if err := good.Validate(2); err != nil {
		t.Errorf("valid scenario rejected: %v", err)
	}
}

func TestScenarioCompile(t *testing.T) {
	tab, err := Scenario{Events: []Event{
		{Kind: Crash, Worker: 0, Time: 5},
		{Kind: Transient, Worker: 1, Time: 1, Until: 2},
		{Kind: Straggler, Worker: 1, Time: 3, Until: 4, Factor: 0.5},
	}}.Compile(2)
	if err != nil {
		t.Fatal(err)
	}
	if tab.CrashAt(0) != 5 || tab.speed(0, 5) != 0 || tab.speed(0, 4.9) != 1 {
		t.Error("crash window wrong")
	}
	if !math.IsInf(tab.CrashAt(1), 1) {
		t.Error("a transient outage compiled as a crash")
	}
	if until, paused := tab.PausedUntil(1, 1.5); !paused || until != 2 {
		t.Errorf("PausedUntil(1, 1.5) = %v, %v; want 2, true", until, paused)
	}
	if _, paused := tab.PausedUntil(1, 2); paused {
		t.Error("transient window wrong")
	}
	if f := tab.ComputeScale(1, 3.5); f != 0.5 {
		t.Errorf("straggler factor = %v, want 0.5", f)
	}
}

func TestGeneratorsDeterministicUnderSeed(t *testing.T) {
	a, err := RandomCrashes(10, 3, 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomCrashes(10, 3, 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed produced different scenarios:\n%+v\n%+v", a, b)
	}
	c, err := RandomCrashes(10, 3, 100, 8)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Error("different seeds produced identical crash patterns")
	}
	crashed := map[int]bool{}
	for _, e := range a.Events {
		if e.Kind == Crash {
			crashed[e.Worker] = true
		}
	}
	if len(crashed) != 3 {
		t.Errorf("crash count = %d, want 3 distinct workers", len(crashed))
	}
	for _, e := range a.Events {
		if e.Time <= 0 || e.Time >= 100 {
			t.Errorf("crash time %v outside (0, horizon)", e.Time)
		}
	}

	s1, err := RandomStragglers(6, 2, 0.25, 1, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := RandomStragglers(6, 2, 0.25, 1, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Error("straggler generator not deterministic")
	}

	f1, err := FlakyLinks(6, 2, 0.5, 0, 10, 11)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := FlakyLinks(6, 2, 0.5, 0, 10, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f1, f2) {
		t.Error("flaky-link generator not deterministic")
	}
}

func TestGeneratorValidation(t *testing.T) {
	if _, err := RandomCrashes(4, 4, 10, 1); err == nil {
		t.Error("killing every worker should be rejected")
	}
	if _, err := RandomCrashes(4, -1, 10, 1); err == nil {
		t.Error("negative kill count should be rejected")
	}
	if _, err := RandomCrashes(4, 1, 0, 1); err == nil {
		t.Error("zero horizon should be rejected")
	}
	if _, err := RandomStragglers(4, 5, 0.5, 0, 1, 1); err == nil {
		t.Error("too many stragglers should be rejected")
	}
	if _, err := RandomStragglers(4, 1, 0, 0, 1, 1); err == nil {
		t.Error("zero factor should be rejected")
	}
	if _, err := FlakyLinks(4, 1, 2, 0, 1, 1); err == nil {
		t.Error("probability > 1 should be rejected")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		Crash: "crash", Transient: "transient", Straggler: "straggler",
		LinkSlow: "link-slow", LinkDrop: "link-drop", Kind(42): "kind(42)",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}
