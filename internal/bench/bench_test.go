package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"nlfl/internal/results"
	"nlfl/internal/service"
)

// payload picks the T-typed payload out of Run's result.
func payload[T any](t *testing.T, files []any) T {
	t.Helper()
	for _, f := range files {
		if v, ok := f.(T); ok {
			return v
		}
	}
	var zero T
	t.Fatalf("Run returned no %T payload", zero)
	return zero
}

func TestRunQuickEndToEnd(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Seed: 42, Quick: true}
	files, err := Run(context.Background(), cfg, dir, Artifacts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateFiles(context.Background(), dir, Artifacts...); err != nil {
		t.Fatalf("emitted artifacts fail their own check: %v", err)
	}
	// The returned set is the registry's, in order, and each payload is
	// byte for byte the file written for it — nothing else lands in dir.
	if len(files) != len(Artifacts) {
		t.Fatalf("Run returned %d payloads for %d artifacts", len(files), len(Artifacts))
	}
	written, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(written) != len(Artifacts) {
		t.Errorf("Run wrote %d files for %d artifacts", len(written), len(Artifacts))
	}
	for i, a := range Artifacts {
		got, err := os.ReadFile(filepath.Join(dir, a.File()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, marshal(t, files[i])) {
			t.Errorf("%s differs from the payload Run returned for it", a.File())
		}
	}
	kf := payload[results.KernelBenchFile](t, files)
	if kf.Seed != 42 || !kf.Quick {
		t.Errorf("kernel file misstamped: seed %d quick %v", kf.Seed, kf.Quick)
	}
	for _, e := range kf.Entries {
		if e.Kernel == "blocked" {
			t.Error("kernel sweep still measures the deleted blocked kernel")
		}
	}
	rf := payload[results.RuntimeBenchFile](t, files)
	// 4 platforms × 3 strategies: quick leaves the virtual-clock sweeps whole.
	if len(rf.Entries) != 12 {
		t.Fatalf("runtime file has %d entries, want 12", len(rf.Entries))
	}
	for _, e := range rf.Entries {
		if e.Violations != 0 {
			t.Errorf("%s/%s: %d invariant violations in a passing run", e.Platform, e.Strategy, e.Violations)
		}
	}

	lf := payload[results.LinkBenchFile](t, files)
	// 2 platforms × 3 bandwidths × 3 strategies.
	if len(lf.Entries) != 18 {
		t.Fatalf("link file has %d entries, want 18", len(lf.Entries))
	}
	minBW := lf.Entries[0].Bandwidth
	makespans := map[string]float64{}
	for _, e := range lf.Entries {
		if e.Violations != 0 {
			t.Errorf("%s/%s bw=%g: %d invariant violations in a passing run",
				e.Platform, e.Strategy, e.Bandwidth, e.Violations)
		}
		if e.Bandwidth < minBW {
			minBW = e.Bandwidth
		}
	}
	for _, e := range lf.Entries {
		if e.Bandwidth == minBW && e.Platform == lf.Entries[0].Platform {
			makespans[e.Strategy] = e.Makespan
		}
	}
	// The headline claim: under the constrained link the lower-volume het
	// plan finishes first on the heterogeneous platform.
	if het, hom := makespans["het"], makespans["hom"]; het <= 0 || hom <= 0 || het >= hom {
		t.Errorf("constrained-bandwidth makespans het=%v hom=%v, want het < hom", het, hom)
	}

	cf := payload[results.ChaosBenchFile](t, files)
	// 2 platforms × 4 fault classes.
	if len(cf.Entries) != 8 {
		t.Fatalf("chaos file has %d entries, want 8", len(cf.Entries))
	}
	classes := map[string]bool{}
	for _, e := range cf.Entries {
		classes[e.Class] = true
		if e.Violations != 0 {
			t.Errorf("chaos %s/%s: %d invariant violations in a passing run", e.Platform, e.Class, e.Violations)
		}
		if e.CommittedVolume != e.ReplannedVolume {
			t.Errorf("chaos %s/%s: committed %v ≠ re-planned %v — the executor's ledger is exact",
				e.Platform, e.Class, e.CommittedVolume, e.ReplannedVolume)
		}
	}
	for _, want := range []string{"crash", "crash-t0", "straggler", "flaky-link"} {
		if !classes[want] {
			t.Errorf("chaos sweep missing fault class %q", want)
		}
	}

	sf := payload[results.ServiceBenchFile](t, files)
	// Quick config: 3 policies × 2 loads + 1 chaos entry + 1 autoscale entry.
	if len(sf.Entries) != 8 {
		t.Fatalf("service file has %d entries, want 8", len(sf.Entries))
	}
	sawAutoscale := false
	for _, e := range sf.Entries {
		if e.Violations != 0 {
			t.Errorf("service %s load=%.2f: %d invariant violations in a passing run",
				e.Policy, e.LoadFactor, e.Violations)
		}
		if e.Autoscale {
			sawAutoscale = true
			if e.SliceOverKnee != 0 {
				t.Errorf("autoscale entry sized %d jobs past the knee", e.SliceOverKnee)
			}
			if len(e.Knees) == 0 {
				t.Error("autoscale entry recorded no knees")
			}
		}
	}
	if !sawAutoscale {
		t.Error("no autoscale entry in the quick service sweep")
	}

	tf := payload[results.TopologyBenchFile](t, files)
	// 3 topologies × 2 bandwidths × 3 strategies.
	if len(tf.Entries) != 18 {
		t.Fatalf("topology file has %d entries, want 18", len(tf.Entries))
	}
	for _, e := range tf.Entries {
		if e.Violations != 0 {
			t.Errorf("topology %s/%s bw=%g: %d invariant violations in a passing run",
				e.Topology, e.Strategy, e.Bandwidth, e.Violations)
		}
	}
	// The crossover-shift headline: het wins somewhere on the star, never
	// on the hop-limited chain.
	if tf.Crossovers["star"] <= 0 {
		t.Errorf("no star crossover recorded: %v", tf.Crossovers)
	}
	if tf.Crossovers["chain"] != 0 {
		t.Errorf("chain crossover recorded at bw=%v", tf.Crossovers["chain"])
	}

	capf := payload[results.CapacityBenchFile](t, files)
	// One entry per slice size of the 8-worker envelope, knee interior.
	if len(capf.Entries) != len(capf.Speeds) {
		t.Fatalf("capacity file has %d entries for %d speeds", len(capf.Entries), len(capf.Speeds))
	}
	if capf.Knee < 1 || capf.Knee >= len(capf.Speeds) {
		t.Errorf("capacity knee %d not interior of [1, %d)", capf.Knee, len(capf.Speeds))
	}
}

// TestRuntimeVolumesDeterministic regenerates the runtime sweep and checks
// that the whole record — geometry, volumes and the virtual-clock
// makespans — is identical across runs.
func TestRuntimeVolumesDeterministic(t *testing.T) {
	cfg := Config{Seed: 7}
	f1, err := RunRuntime(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := RunRuntime(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f1, f2) {
		t.Errorf("runtime sweep not deterministic:\n%+v\nvs\n%+v", f1, f2)
	}
}

// rejects runs one mutation subtest per broken variant: each mutate gets
// a fresh well-formed payload and validate (a validator or a judge) must
// reject what it leaves.
func rejects[F any](t *testing.T, fresh func() F, validate func(F) error, mutations map[string]func(*F)) {
	t.Helper()
	if err := validate(fresh()); err != nil {
		t.Fatalf("well-formed file rejected: %v", err)
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			f := fresh()
			mutate(&f)
			if err := validate(f); !errors.Is(err, ErrInvalidBench) {
				t.Errorf("broken file accepted: %v", err)
			}
		})
	}
}

// mustLookup returns the registered artifact called name.
func mustLookup(t *testing.T, name string) Artifact {
	t.Helper()
	a, err := Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// committedFile reads the repository's copy of a's file.
func committedFile(t *testing.T, a Artifact) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", a.File()))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// committedPayload decodes the repository's copy of a's file.
func committedPayload[F any](t *testing.T, a Artifact) F {
	t.Helper()
	var f F
	if err := json.Unmarshal(committedFile(t, a), &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// rejectsFile requires ValidateFiles to reject body as a's file, naming
// the file.
func rejectsFile(t *testing.T, a Artifact, body []byte) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, a.File()), body, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateFiles(context.Background(), dir, a); !errors.Is(err, ErrInvalidBench) || !strings.Contains(err.Error(), a.File()) {
		t.Errorf("broken %s accepted, or rejected without naming it: %v", a.File(), err)
	}
}

// marshal renders f as SaveJSON writes it.
func marshal(t *testing.T, f any) []byte {
	t.Helper()
	b, err := results.MarshalJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// rejectsCopies runs one subtest per mutation of the committed file of
// the named artifact: ValidateFiles must reject what each leaves.
func rejectsCopies[F any](t *testing.T, name string, mutations map[string]func(*F)) {
	t.Helper()
	a := mustLookup(t, name)
	for mname, mutate := range mutations {
		t.Run(mname, func(t *testing.T) {
			f := committedPayload[F](t, a)
			mutate(&f)
			rejectsFile(t, a, marshal(t, f))
		})
	}
}

// setFirst rewrites the value of the first key in body whose name
// matches the regexp key.
func setFirst(t *testing.T, body []byte, key, value string) []byte {
	t.Helper()
	loc := regexp.MustCompile(`"` + key + `": ([^,\n]+)`).FindSubmatchIndex(body)
	if loc == nil {
		t.Fatalf("no %q key", key)
	}
	return slices.Concat(body[:loc[2]], []byte(value), body[loc[3]:])
}

// rejectsNaN runs a subtest requiring ValidateFiles to reject the named
// artifact's committed file with its first key value set to NaN, which
// encoding/json can neither write nor read.
func rejectsNaN(t *testing.T, name, subtest, key string) {
	t.Helper()
	t.Run(subtest, func(t *testing.T) {
		a := mustLookup(t, name)
		rejectsFile(t, a, setFirst(t, committedFile(t, a), key, "NaN"))
	})
}

func TestValidateRejectsBrokenFiles(t *testing.T) {
	t.Run("kernels", func(t *testing.T) {
		rejects(t, func() results.KernelBenchFile {
			return kernelFile(
				kernelEntry("naive", 128, 0, 3.0),
				kernelEntry("tiled", 128, 0, 18.0),
				kernelEntry("parallel-tiled", 128, 2, 18.0),
				kernelEntry("naive", 1024, 0, 2.5),
				kernelEntry("tiled", 1024, 0, 20.0),
				kernelEntry("parallel-tiled", 1024, 4, 20.0),
			)
		}, ValidateKernels, map[string]func(*results.KernelBenchFile){
			"wrong-schema":   func(f *results.KernelBenchFile) { f.Schema = "wrong" },
			"no-entries":     func(f *results.KernelBenchFile) { f.Entries = nil },
			"unchecked":      func(f *results.KernelBenchFile) { f.Entries[4].Checked = false },
			"full-no-n1024":  func(f *results.KernelBenchFile) { f.Entries = f.Entries[:3] },
			"n1024-no-naive": func(f *results.KernelBenchFile) { f.Entries[3].Kernel = "vector-outer" },
			"n1024-no-tiled": func(f *results.KernelBenchFile) { f.Entries[4].Kernel = "vector-outer" },
		})
	})

	// The virtual-clock artifacts: a broken claim fails the artifact's
	// judge, and any other edit to a committed copy fails the
	// regeneration diff.
	t.Run("runtime", func(t *testing.T) {
		runtime := mustLookup(t, "runtime")
		rejects(t, func() results.RuntimeBenchFile {
			return committedPayload[results.RuntimeBenchFile](t, runtime)
		}, judgeRuntime, map[string]func(*results.RuntimeBenchFile){
			"1%-gate": func(f *results.RuntimeBenchFile) { f.Entries[0].RelError = 0.02 },
		})
		rejectsCopies(t, "runtime", map[string]func(*results.RuntimeBenchFile){
			"zero-throughput":  func(f *results.RuntimeBenchFile) { f.Entries[0].CellsPerSec = 0 },
			"violations":       func(f *results.RuntimeBenchFile) { f.Entries[0].Violations = 3 },
			"zero-volume":      func(f *results.RuntimeBenchFile) { f.Entries[0].MeasuredVolume = 0 },
			"missing-identity": func(f *results.RuntimeBenchFile) { f.Entries[0].Strategy = "" },
		})
		rejectsNaN(t, "runtime", "nan-volume", "measuredVolume")
	})

	t.Run("link", func(t *testing.T) {
		// Entries 0 and 2 are hom and het on the first platform at the
		// most constrained bandwidth.
		link := mustLookup(t, "link")
		rejects(t, func() results.LinkBenchFile {
			return committedPayload[results.LinkBenchFile](t, link)
		}, judgeLink, map[string]func(*results.LinkBenchFile){
			"het-not-faster":  func(f *results.LinkBenchFile) { f.Entries[2].Makespan = 2 * f.Entries[0].Makespan },
			"no-het-hom-pair": func(f *results.LinkBenchFile) { f.Entries[2].Strategy = "hom/k" },
		})
		rejectsCopies(t, "link", map[string]func(*results.LinkBenchFile){
			"wrong-schema":    func(f *results.LinkBenchFile) { f.Schema = "wrong" },
			"no-entries":      func(f *results.LinkBenchFile) { f.Entries = nil },
			"zero-bandwidth":  func(f *results.LinkBenchFile) { f.Entries[0].Bandwidth = 0 },
			"overlap-above-1": func(f *results.LinkBenchFile) { f.Entries[0].OverlapFraction = 1.5 },
			"util-above-1":    func(f *results.LinkBenchFile) { f.Entries[0].LinkUtilization[0] = 2 },
			"violations":      func(f *results.LinkBenchFile) { f.Entries[0].Violations = 1 },
		})
	})

	t.Run("chaos", func(t *testing.T) {
		// Entries 0–3 are the first platform's crash, crash-t0, straggler
		// and flaky-link runs.
		chaos := mustLookup(t, "chaos")
		rejects(t, func() results.ChaosBenchFile {
			return committedPayload[results.ChaosBenchFile](t, chaos)
		}, judgeChaos, map[string]func(*results.ChaosBenchFile){
			"crash-no-trace": func(f *results.ChaosBenchFile) { f.Entries[0].DegradedWorkers = 0 },
			"no-spec-win":    func(f *results.ChaosBenchFile) { f.Entries[2].SpeculativeWins = 0 },
			"no-retry":       func(f *results.ChaosBenchFile) { f.Entries[3].RetriedChunks = 0 },
			"waste-thrash": func(f *results.ChaosBenchFile) {
				f.Entries[0].WastedData = 0.6 * f.Entries[0].MeasuredVolume
			},
		})
		rejectsCopies(t, "chaos", map[string]func(*results.ChaosBenchFile){
			"wrong-class":    func(f *results.ChaosBenchFile) { f.Entries[0].Class = "gremlins" },
			"replan-shrank":  func(f *results.ChaosBenchFile) { f.Entries[0].ReplannedVolume = 0.9 * f.Entries[0].PlanVolume },
			"5%-volume-gate": func(f *results.ChaosBenchFile) { f.Entries[0].CommittedVolume *= 0.9 },
			"committed-off-by-eps": func(f *results.ChaosBenchFile) {
				f.Entries[0].CommittedVolume += 0.00001
				f.Entries[0].WastedData -= 0.00001
			},
			"leaky-ledger":        func(f *results.ChaosBenchFile) { f.Entries[0].WastedData += 4 },
			"zero-makespan":       func(f *results.ChaosBenchFile) { f.Entries[0].Makespan = 0 },
			"violations":          func(f *results.ChaosBenchFile) { f.Entries[0].Violations = 2 },
			"missing-class":       func(f *results.ChaosBenchFile) { f.Entries[0].Class = "" },
			"speeds-mismatch":     func(f *results.ChaosBenchFile) { f.Entries[0].Speeds = f.Entries[0].Speeds[:1] },
			"only-crash-entries":  func(f *results.ChaosBenchFile) { f.Entries = f.Entries[:1] },
			"fault-class-missing": func(f *results.ChaosBenchFile) { f.Entries = f.Entries[:3] },
		})
		rejectsNaN(t, "chaos", "nan-makespan", "makespan")
	})

	t.Run("service", func(t *testing.T) {
		goodService := func(policy string, chaos bool, p99 float64) results.ServiceBenchEntry {
			e := results.ServiceBenchEntry{
				Policy: policy, LoadFactor: 0.9, LambdaJobsPerSec: 50, Chaos: chaos,
				Jobs: 10, Admitted: 10, Completed: 10,
				Makespan: 1, ThroughputJobsPerSec: 10,
				LatencyP50: p99 / 2, LatencyP99: p99, LatencyMean: p99 / 2, LatencyMax: p99,
				MaxSliceWorkers: 2, MeanSliceWorkers: 2, MeanShippedPerJob: 40,
				Tenants: []results.ServiceTenantStat{
					{Tenant: "tenant-a", Submitted: 10, Admitted: 10, Completed: 10, PlanVolume: 100, CommittedVolume: 100},
				},
			}
			if chaos {
				e.Tenants = append(e.Tenants, results.ServiceTenantStat{
					Tenant: serviceChaosTenant, Submitted: 5, Admitted: 5, Completed: 5,
					PlanVolume: 50, ReplannedVolume: 10, CommittedVolume: 60, WastedData: 4, ReclaimedCells: 16,
				})
			}
			return e
		}
		rejects(t, func() results.ServiceBenchFile {
			auto := goodService("srpt", false, 0.1)
			auto.Autoscale = true
			auto.AutoscaleTheta = 0.05
			auto.Knees = map[string]int{"8": 1}
			auto.MaxSliceWorkers, auto.MeanSliceWorkers = 1, 1
			auto.MeanShippedPerJob = 30
			return results.ServiceBenchFile{
				Schema: results.BenchServiceSchema, WorkPerSecond: 3e4, Speeds: []float64{1, 2},
				Entries: []results.ServiceBenchEntry{
					goodService("fifo", false, 0.4),
					goodService("srpt", false, 0.1),
					goodService("ii", false, 0.2),
					goodService("srpt", true, 0.1),
					auto,
				},
			}
		}, ValidateService, map[string]func(*results.ServiceBenchFile){
			"wrong-schema":   func(f *results.ServiceBenchFile) { f.Schema = "wrong" },
			"no-entries":     func(f *results.ServiceBenchFile) { f.Entries = nil },
			"nan-p99":        func(f *results.ServiceBenchFile) { f.Entries[0].LatencyP99 = nan() },
			"quantile-order": func(f *results.ServiceBenchFile) { f.Entries[0].LatencyP50 = 1 },
			"admission-math": func(f *results.ServiceBenchFile) { f.Entries[0].Rejected = 3 },
			"lost-jobs":      func(f *results.ServiceBenchFile) { f.Entries[0].Completed = 9 },
			"violations":     func(f *results.ServiceBenchFile) { f.Entries[0].Violations = 1 },
			"srpt-loses":     func(f *results.ServiceBenchFile) { f.Entries[1].LatencyP99 = 0.5 },
			"ii-loses":       func(f *results.ServiceBenchFile) { f.Entries[2].LatencyP99 = 0.5 },
			"no-chaos-entry": func(f *results.ServiceBenchFile) { f.Entries = f.Entries[:3] },
			"chaos-did-not-bite": func(f *results.ServiceBenchFile) {
				f.Entries[3].Tenants[1].ReclaimedCells = 0
			},
			"bystander-dirtied": func(f *results.ServiceBenchFile) {
				f.Entries[3].Tenants[0].WastedData = 8
			},
			"bystander-inexact": func(f *results.ServiceBenchFile) {
				f.Entries[3].Tenants[0].CommittedVolume = 90
			},
			// Off by less than any float tolerance: a bystander's ledger
			// is exact or broken.
			"bystander-off-by-epsilon": func(f *results.ServiceBenchFile) {
				f.Entries[3].Tenants[0].CommittedVolume = 100.00001
			},
			"no-autoscale-entry": func(f *results.ServiceBenchFile) { f.Entries = f.Entries[:4] },
			"zero-slice-stats":   func(f *results.ServiceBenchFile) { f.Entries[0].MaxSliceWorkers = 0 },
			"slice-over-knee":    func(f *results.ServiceBenchFile) { f.Entries[4].SliceOverKnee = 2 },
			"knee-out-of-range": func(f *results.ServiceBenchFile) {
				f.Entries[4].Knees = map[string]int{"8": 3}
			},
			"slice-exceeds-knee": func(f *results.ServiceBenchFile) {
				f.Entries[4].MaxSliceWorkers = 2
			},
			"autoscaler-no-dividend": func(f *results.ServiceBenchFile) {
				f.Entries[4].MeanShippedPerJob = 40
			},
		})
	})

	t.Run("capacity", func(t *testing.T) {
		capacity := mustLookup(t, "capacity")
		rejects(t, func() results.CapacityBenchFile {
			return committedPayload[results.CapacityBenchFile](t, capacity)
		}, judgeCapacity, map[string]func(*results.CapacityBenchFile){
			// Every step clears θ, so only the interior-knee claim trips.
			"knee-not-interior": func(f *results.CapacityBenchFile) {
				f.Knee = len(f.Speeds)
				for i := 1; i < len(f.Entries); i++ {
					f.Entries[i].MarginalGain = max(f.Entries[i].MarginalGain, f.Theta)
				}
			},
			// Speedups flattened to 1 keep the knee interior.
			"speedup-bound-1": func(f *results.CapacityBenchFile) {
				f.SpeedupBound = 1
				for i := range f.Entries {
					f.Entries[i].Speedup, f.Entries[i].MarginalGain = 1, 0
				}
			},
		})
		rejectsCopies(t, "capacity", map[string]func(*results.CapacityBenchFile){
			"wrong-schema":             func(f *results.CapacityBenchFile) { f.Schema = "wrong" },
			"missing-slice":            func(f *results.CapacityBenchFile) { f.Entries = f.Entries[:2] },
			"sim-off-model":            func(f *results.CapacityBenchFile) { f.Entries[1].SimRelErr = 0.2 },
			"measured-off-model":       func(f *results.CapacityBenchFile) { f.Entries[1].MeasuredRelErr = 0.06 },
			"loose-stated-gate":        func(f *results.CapacityBenchFile) { f.MeasuredTolerance = 0.25 },
			"negative-sim-relerr":      func(f *results.CapacityBenchFile) { f.Entries[1].SimRelErr = -0.2 },
			"negative-measured-relerr": func(f *results.CapacityBenchFile) { f.Entries[1].MeasuredRelErr = -0.5 },
		})
	})
}

// TestArtifactsRejectWrongSchemaAndZeroFiles runs ValidateFiles over
// every registered artifact's committed file (which must pass), the same
// file under a wrong schema id, and a zero-value file (both must fail).
func TestArtifactsRejectWrongSchemaAndZeroFiles(t *testing.T) {
	for _, a := range Artifacts {
		t.Run(a.Name, func(t *testing.T) {
			committed := committedFile(t, a)
			var raw map[string]any
			if err := json.Unmarshal(committed, &raw); err != nil {
				t.Fatal(err)
			}
			raw["schema"] = "nlfl/bench-" + a.Name + "/v0"
			wrong, err := json.Marshal(raw)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				name string
				body []byte
				ok   bool
			}{
				{"committed", committed, true},
				{"wrong-schema", wrong, false},
				{"zero-value", []byte("{}"), false},
			} {
				dir := t.TempDir()
				if err := os.WriteFile(filepath.Join(dir, a.File()), c.body, 0o644); err != nil {
					t.Fatal(err)
				}
				_, err := ValidateFiles(context.Background(), dir, a)
				if c.ok && err != nil {
					t.Errorf("%s rejected: %v", c.name, err)
				}
				if !c.ok && !errors.Is(err, ErrInvalidBench) {
					t.Errorf("%s accepted: %v", c.name, err)
				}
			}
		})
	}
}

// TestValidateFilesRejectsEditedMakespan edits one number in each
// virtual-clock artifact's committed file — its first makespan, the
// value a reader would quote — and requires ValidateFiles to reject the
// copy and name the file. No judge can tell 9.5 from the real makespan;
// only the regeneration diff can.
func TestValidateFilesRejectsEditedMakespan(t *testing.T) {
	for _, a := range Artifacts {
		if a.load != nil {
			continue
		}
		t.Run(a.Name, func(t *testing.T) {
			rejectsFile(t, a, setFirst(t, committedFile(t, a), `\w*[mM]akespan`, "9.5"))
		})
	}
}

// TestSweepsHonorCancelledContext pins satellite behavior for the CLI's
// SIGINT handling: every registered sweep returns promptly with the ctx
// error instead of grinding through its grid, and Run writes nothing.
func TestSweepsHonorCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := Config{Seed: 1, Quick: true}
	for _, a := range Artifacts {
		if _, err := a.run(ctx, cfg); !errors.Is(err, context.Canceled) {
			t.Errorf("%s sweep under cancelled ctx: %v", a.Name, err)
		}
	}
	dir := t.TempDir()
	if _, err := Run(ctx, cfg, dir, Artifacts...); !errors.Is(err, context.Canceled) {
		t.Errorf("Run under cancelled ctx: %v", err)
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Errorf("cancelled Run left %d files behind", len(left))
	}
}

// TestServiceChaosSmoke is the CI race-detector smoke: a short Poisson
// stream through the fleet where one tenant's jobs carry a crash
// scenario. It asserts the chaos bit, the isolation of the bystander
// tenants, and a clean trace audit — the service sweep's contract at a
// fraction of its runtime.
func TestServiceChaosSmoke(t *testing.T) {
	load := 0.6
	lambda := load * serviceFleetCapacity() / serviceMeanCells()
	entry, err := runServiceEntry(context.Background(), 42, service.PolicySRPT, load, lambda, 24, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if entry.Completed+entry.Failed != entry.Admitted {
		t.Fatalf("lost jobs: completed %d + failed %d ≠ admitted %d",
			entry.Completed, entry.Failed, entry.Admitted)
	}
	if entry.Violations != 0 {
		t.Fatalf("%d trace violations", entry.Violations)
	}
	var sawChaosTenant bool
	for _, ta := range entry.Tenants {
		if ta.Tenant == serviceChaosTenant {
			sawChaosTenant = true
			if ta.ReclaimedCells <= 0 || ta.ReplannedVolume <= 0 {
				t.Errorf("chaos left no trace on tenant %q (reclaimed %v, replanned %v)",
					ta.Tenant, ta.ReclaimedCells, ta.ReplannedVolume)
			}
			continue
		}
		if ta.WastedData != 0 || ta.ReclaimedCells != 0 || ta.Failed != 0 {
			t.Errorf("bystander %s dirtied: waste %v reclaimed %v failed %d",
				ta.Tenant, ta.WastedData, ta.ReclaimedCells, ta.Failed)
		}
		if ta.CommittedVolume != ta.PlanVolume {
			t.Errorf("bystander %s ledger inexact: committed %v ≠ planned %v",
				ta.Tenant, ta.CommittedVolume, ta.PlanVolume)
		}
	}
	if !sawChaosTenant {
		t.Fatal("no chaos tenant in the breakdown")
	}
}

func nan() float64 {
	zero := 0.0
	return zero / zero
}
