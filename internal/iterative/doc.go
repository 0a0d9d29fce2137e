// Package iterative closes the loop between the measured runtime and the
// planner stack: an iterative job (entrywise power iteration — each round
// computes the outer product x·xᵀ through the worker pool, extracts its
// diagonal x² at the master and renormalizes, converging to the indicator
// of the largest-magnitude entry) whose per-round load split is recomputed
// by a water-filling solver fed with rates *measured* from the previous
// rounds' trace spans instead of assumed speeds.
//
// The pieces compose as feedback control (DESIGN.md §14):
//
//	trace.Live spans ─→ Estimator (EWMA + outlier rejection + drift
//	detection) ─→ WaterFill (θ-bisection, Esfahanizadeh et al.) ─→
//	hysteresis gate ─→ runtime.PlanWeighted (PERI-SUM) ─→ next round
//
// Robustness is the point: a single chaotic round cannot wreck the
// estimate (a departure beyond 25% must persist 2 consecutive rounds
// before the estimator re-anchors), workers that die under Options.Chaos
// are excluded from subsequent plans while the runtime's survivor
// re-planning keeps the current round exactly-once, re-planning is
// bounded by ReplanEvery and a 2% hysteresis gain so the controller
// cannot thrash, thin or inconsistent measurements fall back to the last
// trusted plan, and a job that fails to converge surfaces the typed
// ErrStalled.
package iterative
