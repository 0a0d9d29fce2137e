package faults

import (
	"sort"

	"nlfl/internal/dessim"
)

// Injector binds a compiled scenario to a dessim.Engine: it schedules the
// scenario's crash and recovery instants as engine events, maintains the
// live/dead state of every worker, and fires crash/recover callbacks into
// whichever executor is running on the same engine.
type Injector struct {
	eng       *dessim.Engine
	sc        Scenario
	tab       *Table
	alive     []bool
	onCrash   []func(worker int, permanent bool)
	onRecover []func(worker int)
	armed     bool
}

// NewInjector prepares (but does not yet schedule) the injection of sc,
// compiled into tab, on eng.
func NewInjector(eng *dessim.Engine, sc Scenario, tab *Table) *Injector {
	alive := make([]bool, len(tab.crashAt))
	for i := range alive {
		alive[i] = true
	}
	return &Injector{eng: eng, sc: sc, tab: tab, alive: alive}
}

// OnCrash registers a callback fired at each crash instant (permanent or
// transient), after the injector has marked the worker dead. Register
// before Arm.
func (in *Injector) OnCrash(f func(worker int, permanent bool)) {
	in.onCrash = append(in.onCrash, f)
}

// OnRecover registers a callback fired at each transient recovery, after
// the injector has marked the worker live again.
func (in *Injector) OnRecover(f func(worker int)) {
	in.onRecover = append(in.onRecover, f)
}

// Arm schedules the scenario's state-changing instants on the engine.
// Events are scheduled in deterministic (time, worker, kind) order so the
// engine's FIFO tie-break is reproducible. Arm may be called once.
func (in *Injector) Arm() {
	if in.armed {
		panic("faults: injector armed twice")
	}
	in.armed = true
	type instant struct {
		time      float64
		worker    int
		recover   bool
		permanent bool
	}
	var is []instant
	for _, e := range in.sc.Events {
		switch e.Kind {
		case Crash:
			is = append(is, instant{time: e.Time, worker: e.Worker, permanent: true})
		case Transient:
			is = append(is, instant{time: e.Time, worker: e.Worker})
			is = append(is, instant{time: e.Until, worker: e.Worker, recover: true})
		}
	}
	sort.SliceStable(is, func(a, b int) bool {
		if is[a].time != is[b].time {
			return is[a].time < is[b].time
		}
		return is[a].worker < is[b].worker
	})
	for _, inst := range is {
		inst := inst
		in.eng.At(inst.time, func() {
			if inst.recover {
				// A permanent crash in the meantime wins over a scheduled
				// recovery (the worker stays dead).
				if in.eng.Now() >= in.tab.CrashAt(inst.worker) {
					return
				}
				in.alive[inst.worker] = true
				for _, f := range in.onRecover {
					f(inst.worker)
				}
				return
			}
			if !in.alive[inst.worker] {
				return // already down: duplicate crash is a no-op
			}
			in.alive[inst.worker] = false
			for _, f := range in.onCrash {
				f(inst.worker, inst.permanent)
			}
		})
	}
}

// Alive reports whether worker w is up right now (engine time).
func (in *Injector) Alive(w int) bool { return in.alive[w] }
