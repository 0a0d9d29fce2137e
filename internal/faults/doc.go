// Package faults is the unified fault-injection subsystem of the
// reproduction: one seedable fault model that every distribution strategy
// — single-round DLT, demand-driven Homogeneous Blocks (Comm_hom and
// Comm_hom/k), Heterogeneous Blocks — can be exercised against on the
// shared internal/dessim event engine.
//
// The paper's Section 1.1 credits MapReduce's practical success to its
// "inherent capability of handling hardware failures": a demand-driven
// pool of small homogeneous chunks loses at most the chunks in flight
// when a machine dies, while a single-round DLT schedule loses the dead
// worker's entire allocation with no way to react. This package makes
// that argument executable:
//
//   - Scenario describes deterministic fault timelines: permanent worker
//     crashes, transient crash/recover cycles, straggler slowdowns (speed
//     multipliers over time windows), link degradation, and probabilistic
//     transfer drops.
//   - Scenario.Compile lowers a scenario once into a Table, the one
//     per-worker fault model every executor queries: crash instants,
//     outages, speed and bandwidth factors and seeded drop coins, plus
//     the work integration the DES executors need. The measured runtime
//     and the fleet read the same Table on live seconds.
//   - Injector arms a compiled scenario's crash and recovery instants on
//     a dessim.Engine and fires callbacks into whatever executor is
//     listening.
//   - RunResilientDemandDriven executes the Homogeneous Blocks
//     demand-driven distribution with the fault tolerance MapReduce
//     actually implements: heartbeat-timeout crash detection,
//     capped-exponential-backoff retry of dropped transfers, speculative
//     re-execution of stragglers, and full lost-work / re-execution /
//     extra-communication accounting. It is the repository's one
//     simulated demand-driven master with speculation and failures.
//   - RunSingleRoundUnderFaults executes a static single-round schedule
//     under the same scenario; having no feedback channel, it simply
//     loses every chunk a fault touches.
//   - Replan is the failure-aware re-planner: after a permanent crash it
//     recomputes the Comm_hom/k block size and the Heterogeneous Blocks
//     partition over the survivors and reports the extra replicated
//     volume against the fault-free Comm_hom = 2N·√(Σ sᵢ/s₁).
//
// # Determinism
//
// Every run of this package is a pure function of (platform, workload,
// Scenario). Scenario carries an explicit Seed; all stochastic choices —
// crash times and victims in the generated scenarios, transfer-drop coin
// flips — flow through a stats.RNG derived from that seed and nothing
// else. Speculative-execution targets are chosen by a deterministic rule
// (latest projected finish, ties to the lowest worker index), so they
// need no randomness at all. The dessim engine executes equal-time events
// FIFO in scheduling order. Identical seeds therefore reproduce identical
// timelines, event for event, on every platform — the property the
// regression records and the `nlfl faults` golden tests rely on.
package faults
