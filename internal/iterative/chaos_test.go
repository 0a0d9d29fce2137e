package iterative

import (
	"context"
	"fmt"
	"testing"

	"nlfl/internal/faults"
	nrt "nlfl/internal/runtime"
)

// TestChaosIterativeProperty is the chaos × iterative interaction sweep:
// seeded {crash, straggler, link-slow} scenarios crossed with re-plan
// frequencies, every round audited by the exactly-once trace oracle. The
// property: whatever the fault and however often the controller re-plans,
// the iteration converges to the right answer with zero violations.
func TestChaosIterativeProperty(t *testing.T) {
	classes := []string{"crash", "straggler", "link-slow"}
	replans := []int{1, 2, 4}
	seeds := 11
	if testing.Short() {
		seeds = 3
	}
	for _, class := range classes {
		for _, every := range replans {
			for seed := 0; seed < seeds; seed++ {
				class, every, seed := class, every, seed
				t.Run(fmt.Sprintf("%s/every=%d/seed=%d", class, every, seed), func(t *testing.T) {
					t.Parallel()
					opts := Options{
						N:             48,
						X0:            SeedVector(48, 0.6),
						MaxRounds:     12,
						Tol:           1e-9,
						Mode:          ModeAdaptive,
						Speeds:        []float64{1, 2, 3},
						WorkPerSecond: 4e5,
						Burst:         1,
						VerifyEvery:   11,
						ReplanEvery:   every,
					}
					victim := seed % len(opts.Speeds)
					switch class {
					case "crash":
						opts.Chaos = func(round int) nrt.Chaos {
							if round != 1 {
								return nrt.Chaos{}
							}
							return nrt.Chaos{
								Scenario: faults.Scenario{
									Seed: int64(seed),
									// Round 1 lasts ≈ 1 ms at this throttle; the crash
									// instant must land inside it to actually fire.
									Events: []faults.Event{{Kind: faults.Crash, Worker: victim, Time: 0.0001 + 0.0001*float64(seed%3)}},
								},
								MaxRetries: 3,
							}
						}
					case "straggler":
						opts.Chaos = Drift{Worker: victim, Factor: 0.3, Round: 1}.Chaos(int64(seed))
					case "link-slow":
						opts.Link = nrt.Link{ElemsPerSecond: 4e6}
						opts.Chaos = func(round int) nrt.Chaos {
							if round < 1 {
								return nrt.Chaos{}
							}
							return nrt.Chaos{Scenario: faults.Scenario{
								Seed: int64(seed),
								Events: []faults.Event{
									{Kind: faults.LinkSlow, Worker: victim, Time: 0, Until: 1e9, Factor: 0.25},
								},
							}}
						}
					}
					res, err := Run(context.Background(), opts)
					if err != nil {
						t.Fatalf("%v (rounds run: %d)", err, len(res.Rounds))
					}
					if !res.Converged {
						t.Fatal("did not converge")
					}
					if res.Violations != 0 {
						t.Fatalf("%d trace-oracle violations (exactly-once must survive %s)", res.Violations, class)
					}
					if want := 48 / 3; res.Dominant != want {
						t.Fatalf("converged to index %d, want %d", res.Dominant, want)
					}
					if class == "crash" && len(res.DeadWorkers) != 1 {
						t.Fatalf("crash class killed %v workers", res.DeadWorkers)
					}
				})
			}
		}
	}
}
