// Package capacity turns the paper's no-free-lunch theory into a
// capacity planner: given a workload class (cost N^α), a fleet speed
// profile, the token-bucket rate and the shared-link bandwidth, it
// predicts the speedup curve of the replicate-and-partition execution,
// finds the knee — the fleet size beyond which the marginal speedup of
// one more worker falls below a threshold — and states the closed-form
// speedup ceiling no fleet size can beat.
//
// The model is Amdahl-like in the sense of Cao–Wu–Robertazzi
// ("Integrating Amdahl-like Laws and Divisible Load Theory"): a
// saturation law derived from the two resources every slice must pay —
//
//	T(p) = V(p)/B + N^α/(R·Σᵢ≤ₚ sᵢ)
//
// where V(p) is the PERI-SUM partition's input volume over the p
// fastest workers (growing with p) and the second term the balanced
// compute phase (shrinking with p). Adding workers trades compute for
// communication; the knee is where the trade stops paying. The paper's
// own Section 2 law — input chunking leaves a 1 − 1/p^(α-1) fraction of
// the work undone — is reported alongside every prediction as the
// cautionary baseline.
//
// Predictions are validated against two observations, not trusted as
// theory: SimulateMakespan replays the snapped plan in the
// discrete-event simulator (agreement within snapping error), and
// MeasureMakespan executes it on the real goroutine worker pool on the
// runtime's virtual clock (agreement within snapping error too).
// CheckObservation gates both at 5% in BENCH_capacity.json; a model with
// a mis-specified α fails it.
//
// Consumers: `nlfl recommend` (the operator CLI), the fleet service's
// autoscaler admission policy (service.Config.AutoscaleTheta), and the
// `nlfl bench -capacity` sweep. See docs/CAPACITY.md for the operator
// guide.
package capacity
