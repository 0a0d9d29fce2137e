package faults

import (
	"fmt"
	"math"

	"nlfl/internal/stats"
)

// Kind enumerates the fault event types.
type Kind int

// Fault kinds.
const (
	// Crash takes the worker down at Time, permanently.
	Crash Kind = iota
	// Transient takes the worker down at Time and brings it back at
	// Until; whatever it was running is lost.
	Transient
	// Straggler multiplies the worker's compute speed by Factor on
	// [Time, Until) — Factor < 1 slows it down, 0 is invalid (use
	// Transient for an outage).
	Straggler
	// LinkSlow multiplies the worker's incoming bandwidth by Factor on
	// [Time, Until).
	LinkSlow
	// LinkDrop makes transfers to the worker that start inside
	// [Time, Until) fail with probability DropProb (seeded, see
	// Scenario.Seed). The transfer still occupies the link for its full
	// duration before the loss is noticed.
	LinkDrop
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Transient:
		return "transient"
	case Straggler:
		return "straggler"
	case LinkSlow:
		return "link-slow"
	case LinkDrop:
		return "link-drop"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one injected fault.
type Event struct {
	Kind   Kind
	Worker int
	// Time is when the fault begins.
	Time float64
	// Until ends windowed faults (Transient recovery time, Straggler /
	// LinkSlow / LinkDrop window end). Ignored for Crash.
	Until float64
	// Factor is the speed or bandwidth multiplier (Straggler, LinkSlow).
	Factor float64
	// DropProb is the per-transfer loss probability (LinkDrop).
	DropProb float64
}

// Scenario is a deterministic, seedable fault timeline.
type Scenario struct {
	// Events lists the injected faults in any order.
	Events []Event
	// Seed drives every stochastic decision made while executing the
	// scenario (currently: LinkDrop coin flips). Two runs with equal
	// scenarios produce identical timelines.
	Seed int64
}

// Validate checks the scenario against a p-worker platform.
func (s Scenario) Validate(p int) error {
	for i, e := range s.Events {
		if e.Worker < 0 || e.Worker >= p {
			return fmt.Errorf("faults: event %d targets unknown worker %d", i, e.Worker)
		}
		if e.Time < 0 || math.IsNaN(e.Time) || math.IsInf(e.Time, 0) {
			return fmt.Errorf("faults: event %d starts at invalid time %v", i, e.Time)
		}
		switch e.Kind {
		case Crash:
		case Transient:
			if e.Until <= e.Time {
				return fmt.Errorf("faults: event %d recovers at %v, not after %v", i, e.Until, e.Time)
			}
		case Straggler:
			if e.Until <= e.Time {
				return fmt.Errorf("faults: event %d window [%v,%v) is empty", i, e.Time, e.Until)
			}
			if e.Factor <= 0 || math.IsNaN(e.Factor) {
				return fmt.Errorf("faults: event %d straggler factor %v must be positive (use Transient for an outage)", i, e.Factor)
			}
		case LinkSlow:
			if e.Until <= e.Time {
				return fmt.Errorf("faults: event %d window [%v,%v) is empty", i, e.Time, e.Until)
			}
			if e.Factor <= 0 || math.IsNaN(e.Factor) {
				return fmt.Errorf("faults: event %d link factor %v must be positive", i, e.Factor)
			}
		case LinkDrop:
			if e.Until <= e.Time {
				return fmt.Errorf("faults: event %d window [%v,%v) is empty", i, e.Time, e.Until)
			}
			if e.DropProb < 0 || e.DropProb > 1 || math.IsNaN(e.DropProb) {
				return fmt.Errorf("faults: event %d drop probability %v outside [0,1]", i, e.DropProb)
			}
		default:
			return fmt.Errorf("faults: event %d has unknown kind %d", i, int(e.Kind))
		}
	}
	return nil
}

// SingleCrash builds the simplest scenario: worker w dies at time t.
func SingleCrash(w int, t float64) Scenario {
	return Scenario{Events: []Event{{Kind: Crash, Worker: w, Time: t}}}
}

// RandomCrashes kills k distinct workers of a p-worker platform at
// uniform random times in (0, horizon), leaving at least one survivor
// (k < p required). Identical seeds yield identical victims and times.
func RandomCrashes(p, k int, horizon float64, seed int64) (Scenario, error) {
	if k < 0 || k >= p {
		return Scenario{}, fmt.Errorf("faults: cannot crash %d of %d workers (need at least one survivor)", k, p)
	}
	if horizon <= 0 {
		return Scenario{}, fmt.Errorf("faults: horizon %v must be positive", horizon)
	}
	r := stats.NewRNG(seed)
	victims := r.Perm(p)[:k]
	sc := Scenario{Seed: seed}
	for _, w := range victims {
		t := horizon * (0.05 + 0.9*r.Float64()) // keep crashes strictly inside the run
		sc.Events = append(sc.Events, Event{Kind: Crash, Worker: w, Time: t})
	}
	return sc, nil
}

// RandomStragglers slows k distinct workers to factor× nominal speed over
// [start, start+dur), choosing victims with the given seed.
func RandomStragglers(p, k int, factor, start, dur float64, seed int64) (Scenario, error) {
	if k < 0 || k > p {
		return Scenario{}, fmt.Errorf("faults: cannot slow %d of %d workers", k, p)
	}
	if factor <= 0 || dur <= 0 || start < 0 {
		return Scenario{}, fmt.Errorf("faults: invalid straggler parameters (factor=%v start=%v dur=%v)", factor, start, dur)
	}
	r := stats.NewRNG(seed)
	sc := Scenario{Seed: seed}
	for _, w := range r.Perm(p)[:k] {
		sc.Events = append(sc.Events, Event{Kind: Straggler, Worker: w, Time: start, Until: start + dur, Factor: factor})
	}
	return sc, nil
}

// FlakyLinks makes k distinct workers' links drop transfers with
// probability dropProb over [start, start+dur).
func FlakyLinks(p, k int, dropProb, start, dur float64, seed int64) (Scenario, error) {
	if k < 0 || k > p {
		return Scenario{}, fmt.Errorf("faults: cannot degrade %d of %d links", k, p)
	}
	if dropProb < 0 || dropProb > 1 || dur <= 0 || start < 0 {
		return Scenario{}, fmt.Errorf("faults: invalid flaky-link parameters (prob=%v start=%v dur=%v)", dropProb, start, dur)
	}
	r := stats.NewRNG(seed)
	sc := Scenario{Seed: seed}
	for _, w := range r.Perm(p)[:k] {
		sc.Events = append(sc.Events, Event{Kind: LinkDrop, Worker: w, Time: start, Until: start + dur, DropProb: dropProb})
	}
	return sc, nil
}
