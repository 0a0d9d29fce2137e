package bench

import (
	"context"
	"errors"
	"fmt"
	"math"
	goruntime "runtime"
	"strconv"
	"time"

	"nlfl/internal/capacity"
	"nlfl/internal/faults"
	"nlfl/internal/results"
	nrt "nlfl/internal/runtime"
	"nlfl/internal/service"
	"nlfl/internal/stats"
	"nlfl/internal/trace"
)

// The service sweep runs a fixed envelope, like the chaos sweep: the
// Poisson arrival rates below are calibrated against this rate, speed
// profile and job mix so "load 0.9" means 90% of the fleet's aggregate
// compute capacity — slow enough that queueing dynamics (not Go
// scheduler noise) dominate the latency quantiles, fast enough that a
// full sweep stays under a minute.
var serviceSpeeds = []float64{1, 2, 3, 4}

const (
	serviceRate = 3e4 // cells/s per unit speed
	// serviceBandwidth makes the shared one-port link the scarce
	// resource: a mean job ships ~400 elements (~16 ms of link time)
	// against ~14 ms of aggregate compute. This is the regime where
	// naive FIFO is provably bad (Gallet–Robert–Vivien): job-exclusive
	// service cannot overlap one job's compute tail with the next job's
	// transfers, so the link idles while workers finish and FIFO's
	// effective capacity collapses to ~0.67 of the fleet's, while the
	// interleaved policies (~0.95) keep the link saturated by feeding
	// the next job's rectangles during the current job's computes.
	serviceBandwidth = 2.5e4
	// serviceChaosTenant is the tenant whose jobs carry the job-scoped
	// crash scenario in the chaos entry.
	serviceChaosTenant = "chaos"
	// serviceAutoscaleTheta is the autoscale entry's knee threshold: a
	// worker that buys under 5% marginal speedup is not worth its input
	// shipping. It matches the capacity sweep's theta so the knees in
	// BENCH_service.json and BENCH_capacity.json tell one story.
	serviceAutoscaleTheta = 0.05
)

// serviceJobMix is the offered job-size distribution.
var serviceJobSizes = []struct {
	n    int
	prob float64
}{
	{48, 0.5},
	{64, 0.3},
	{96, 0.2},
}

// serviceFleetCapacity is the fleet's aggregate compute rate in cells/s.
func serviceFleetCapacity() float64 {
	capacity := 0.0
	for _, s := range serviceSpeeds {
		capacity += s * serviceRate
	}
	return capacity
}

// serviceMeanCells is the mix's expected job cost in cells.
func serviceMeanCells() float64 {
	mean := 0.0
	for _, s := range serviceJobSizes {
		mean += s.prob * float64(s.n) * float64(s.n)
	}
	return mean
}

// serviceLoads are the offered loads relative to the fleet's aggregate
// compute capacity. The top load (0.8) sits in the window the
// calibration above opens: well past FIFO's effective capacity (~0.67,
// so its queue grows without bound) yet comfortably inside SRPT's and
// II's (~0.95, so their tails stay bounded).
func serviceLoads(quick bool) []float64 {
	if quick {
		return []float64{0.5, 0.8}
	}
	return []float64{0.4, 0.65, 0.8}
}

// serviceJobs is the offered job count per entry. The run must be long
// enough for an overloaded FIFO queue to visibly diverge (its backlog
// grows at roughly (ρ − 0.67)·λ jobs per second, so the divergence is
// linear in run length while the stable policies' tails are not), which
// takes ~2 s of arrivals at the top load. Quick mode keeps the full
// job count and economizes on swept loads instead.
func serviceJobs(quick bool) int {
	return 120
}

// RunServiceSweep measures the multi-tenant fleet service under a seeded
// Poisson arrival stream: every scheduling policy at every offered load,
// one chaos entry where a single tenant's jobs carry a job-scoped crash
// scenario, and one autoscale entry where the capacity model caps each
// job's slice at its predicted speedup knee. Every completed job's trace
// is audited by the invariant oracle, the chaos entry's clean tenants
// must show the exact committed-equals-planned ledger — the isolation
// guarantee as a measured gate, not a comment — and the autoscale entry
// must ship strictly less data per job than its uncapped twin. A
// cancelled ctx aborts the in-flight run and stops the sweep.
//
// Wall-clock latencies vary run to run; the admission counters, volume
// ledgers and the policy ordering gates (SRPT and interleaved
// installments beat FIFO's p99 at the top load) are the reproducible
// part of the record. See EXPERIMENTS.md for the regeneration recipe.
func RunServiceSweep(ctx context.Context, cfg Config) (results.ServiceBenchFile, error) {
	file := results.ServiceBenchFile{
		Schema:        results.BenchServiceSchema,
		Seed:          cfg.Seed,
		Quick:         cfg.Quick,
		WorkPerSecond: serviceRate,
		Speeds:        serviceSpeeds,
		Bandwidth:     serviceBandwidth,
		GoVersion:     goruntime.Version(),
		GOMAXPROCS:    maxProcs(),
	}
	fleetCap := serviceFleetCapacity()
	jobs := serviceJobs(cfg.Quick)
	loads := serviceLoads(cfg.Quick)
	for _, pol := range service.Policies() {
		for _, load := range loads {
			lambda := load * fleetCap / serviceMeanCells()
			entry, err := runServiceEntry(ctx, cfg.Seed, pol, load, lambda, jobs, false, 0)
			if err != nil {
				return file, fmt.Errorf("bench: service %s load=%.2f: %w", pol, load, err)
			}
			file.Entries = append(file.Entries, entry)
		}
	}
	// The isolation entry: one tenant hammered by a per-job crash
	// scenario under moderate load; the other tenants must come out with
	// exact ledgers.
	load := 0.6
	lambda := load * fleetCap / serviceMeanCells()
	entry, err := runServiceEntry(ctx, cfg.Seed, service.PolicySRPT, load, lambda, jobs, true, 0)
	if err != nil {
		return file, fmt.Errorf("bench: service chaos entry: %w", err)
	}
	file.Entries = append(file.Entries, entry)
	// The autoscale entry: SRPT at the top load again, but the capacity
	// model caps every job's slice at its predicted speedup knee. The
	// same seed replays the same job mix and arrivals as the uncapped
	// baseline, so the shipped-volume dividend is measured like for like.
	load = serviceLoads(cfg.Quick)[len(serviceLoads(cfg.Quick))-1]
	lambda = load * fleetCap / serviceMeanCells()
	entry, err = runServiceEntry(ctx, cfg.Seed, service.PolicySRPT, load, lambda, jobs, false, serviceAutoscaleTheta)
	if err != nil {
		return file, fmt.Errorf("bench: service autoscale entry: %w", err)
	}
	file.Entries = append(file.Entries, entry)
	return file, nil
}

// runServiceEntry runs one (policy, load) point: a Poisson stream of
// jobs from three round-robin tenants through a fresh fleet. A positive
// theta turns on the fleet's capacity-model autoscaler and records the
// model's per-size knees alongside the measured slice sizes.
func runServiceEntry(ctx context.Context, seed int64, pol service.Policy, load, lambda float64, jobs int, chaos bool, theta float64) (results.ServiceBenchEntry, error) {
	entry := results.ServiceBenchEntry{
		Policy:           string(pol),
		LoadFactor:       load,
		LambdaJobsPerSec: lambda,
		Chaos:            chaos,
		Jobs:             jobs,
		Autoscale:        theta > 0,
		AutoscaleTheta:   theta,
	}
	if theta > 0 {
		// The model's knee per job size in the mix, over the full healthy
		// fleet — the ceiling every admitted slice must respect.
		entry.Knees = make(map[string]int, len(serviceJobSizes))
		for _, s := range serviceJobSizes {
			m := capacity.Model{
				Alpha:         2,
				N:             s.n,
				Speeds:        serviceSpeeds,
				WorkPerSecond: serviceRate,
				Bandwidth:     serviceBandwidth,
			}
			r, err := m.Recommend(theta)
			if err != nil {
				return entry, fmt.Errorf("capacity knee for n=%d: %w", s.n, err)
			}
			entry.Knees[strconv.Itoa(s.n)] = r.Knee
		}
	}
	fleet, err := service.New(service.Config{
		Speeds:         serviceSpeeds,
		WorkPerSecond:  serviceRate,
		Link:           nrt.Link{ElemsPerSecond: serviceBandwidth},
		Policy:         pol,
		AutoscaleTheta: theta,
		// Strong anti-starvation aging: a waiting job sheds 20% of fleet
		// capacity per second from its SRPT key, so the big jobs in the
		// mix overtake after ~100 ms of waiting instead of riding the
		// tail — SRPT's p99 then measures scheduling, not starvation.
		AgingCellsPerSec: 0.2 * serviceFleetCapacity(),
		// Roomy admission: the gates compare queueing latency across
		// policies, so overload must queue (and hurt p99), not shed.
		MaxQueue:    4 * jobs,
		TenantQuota: 2 * jobs,
		VerifyEvery: 1009,
	})
	if err != nil {
		return entry, err
	}
	defer fleet.Close()

	// Two RNG streams: the job mix is shared by every policy at every
	// load (same seed → same job sequence → comparable quantiles), the
	// arrival stream by every policy at the same load.
	mixRNG := stats.NewRNG(seed)
	arrRNG := stats.NewRNG(seed + int64(1e6*load))
	tenants := []string{"tenant-a", "tenant-b", "tenant-c"}
	if chaos {
		tenants = []string{"tenant-a", "tenant-b", serviceChaosTenant}
	}

	handles := make([]*service.JobHandle, 0, jobs)
	for i := 0; i < jobs; i++ {
		if err := ctx.Err(); err != nil {
			return entry, err
		}
		if i > 0 {
			wait := arrRNG.ExpFloat64() / lambda
			t := time.NewTimer(time.Duration(wait * float64(time.Second)))
			select {
			case <-ctx.Done():
				t.Stop()
				return entry, ctx.Err()
			case <-t.C:
			}
		}
		u := mixRNG.Float64()
		n := serviceJobSizes[len(serviceJobSizes)-1].n
		acc := 0.0
		for _, s := range serviceJobSizes {
			acc += s.prob
			if u < acc {
				n = s.n
				break
			}
		}
		// Every job uses the het strategy: the fleet is heterogeneous, so
		// PERI-SUM rectangles are the right plan, and fixing the strategy
		// isolates the scheduling policy as the only variable. One chunk
		// per worker also means a job cannot hide its own ramp — the
		// cross-job comm/compute overlap (or FIFO's lack of it) is what
		// the latency quantiles measure.
		spec := service.JobSpec{
			Tenant:   tenants[i%len(tenants)],
			N:        n,
			Strategy: "het",
			Seed:     seed + int64(i),
		}
		if chaos && spec.Tenant == serviceChaosTenant {
			// Job-scoped: worker 3 (the fastest) dies 5 ms into *this
			// job*; the fleet re-plans onto the job's survivors while the
			// same worker keeps serving everyone else.
			spec.Chaos = service.ChaosSpec{
				Scenario:   faults.SingleCrash(3, 0.005),
				MaxRetries: 4,
			}
		}
		h, err := fleet.Submit(spec)
		if err != nil {
			if errors.Is(err, service.ErrAdmissionRejected) {
				continue // counted via fleet accounting below
			}
			return entry, err
		}
		handles = append(handles, h)
	}

	var latencies []float64
	var shipped float64
	sliceSum := 0
	firstSubmit, lastDone := math.Inf(1), math.Inf(-1)
	for _, h := range handles {
		rep, err := h.Wait(ctx)
		if rep == nil {
			return entry, err // ctx expired: no report to harvest
		}
		if rep.Failed {
			if !chaos {
				return entry, fmt.Errorf("job %d failed without chaos: %s", rep.ID, rep.Err)
			}
			continue
		}
		entry.Violations += len(trace.Check(rep.Trace, rep.Expect(1e-9)))
		latencies = append(latencies, rep.Latency)
		firstSubmit = math.Min(firstSubmit, rep.SubmitTime)
		lastDone = math.Max(lastDone, rep.DoneTime)
		shipped += rep.DataShipped
		sliceSum += len(rep.Workers)
		if len(rep.Workers) > entry.MaxSliceWorkers {
			entry.MaxSliceWorkers = len(rep.Workers)
		}
		if entry.Autoscale {
			if knee, ok := entry.Knees[strconv.Itoa(rep.N)]; ok && len(rep.Workers) > knee {
				entry.SliceOverKnee++
			}
		}
	}
	if len(latencies) == 0 {
		return entry, fmt.Errorf("no job completed")
	}
	entry.MeanSliceWorkers = float64(sliceSum) / float64(len(latencies))
	entry.MeanShippedPerJob = shipped / float64(len(latencies))

	acc := fleet.Accounting()
	entry.Admitted = acc.Submitted - acc.Rejected
	entry.Rejected = acc.Rejected
	entry.Completed = acc.Completed
	entry.Failed = acc.Failed
	entry.Makespan = lastDone - firstSubmit
	if entry.Makespan > 0 {
		entry.ThroughputJobsPerSec = float64(entry.Completed) / entry.Makespan
	}
	entry.LatencyP50 = stats.Quantile(latencies, 0.5)
	entry.LatencyP99 = stats.Quantile(latencies, 0.99)
	entry.LatencyMean = stats.Mean(latencies)
	entry.LatencyMax = stats.Max(latencies)
	for _, ta := range acc.Tenants {
		entry.Tenants = append(entry.Tenants, results.ServiceTenantStat{
			Tenant:          ta.Tenant,
			Submitted:       ta.Submitted,
			Admitted:        ta.Admitted,
			Rejected:        ta.Rejected,
			Completed:       ta.Completed,
			Failed:          ta.Failed,
			Cancelled:       ta.Cancelled,
			PlanVolume:      ta.PlanVolume,
			ReplannedVolume: ta.ReplannedVolume,
			CommittedVolume: ta.CommittedVolume,
			WastedData:      ta.WastedData,
			ReclaimedCells:  float64(ta.ReclaimedCells),
		})
	}
	return entry, nil
}

// ValidateService is the schema check for a BENCH_service payload: right
// schema id, non-empty entries, finite ordered latency quantiles, clean
// admission arithmetic, zero trace violations, the policy gate (SRPT and
// interleaved installments strictly beat FIFO's p99 at the highest
// fault-free load — naive FIFO is the provably bad baseline), the
// isolation gate (in the chaos entry, only the chaos tenant shows
// reclaimed work; every other tenant's ledger is exact), and the
// autoscale gate (the capacity-model entry kept every slice at or under
// the knee and shipped strictly less per job than the uncapped baseline
// at the same policy and load).
func ValidateService(f results.ServiceBenchFile) error {
	if f.Schema != results.BenchServiceSchema {
		return invalid("schema %q, want %q", f.Schema, results.BenchServiceSchema)
	}
	if len(f.Entries) == 0 {
		return invalid("no entries")
	}
	if !finite(f.WorkPerSecond) || f.WorkPerSecond <= 0 {
		return invalid("non-positive work rate %v", f.WorkPerSecond)
	}
	if len(f.Speeds) == 0 {
		return invalid("no speed profile")
	}
	topLoad := 0.0
	for _, e := range f.Entries {
		if !e.Chaos && e.LoadFactor > topLoad {
			topLoad = e.LoadFactor
		}
	}
	p99 := map[string]float64{} // policy → p99 at the top fault-free load
	sawChaos, sawAutoscale := false, false
	for i, e := range f.Entries {
		id := fmt.Sprintf("entry %d (%s load=%.2f chaos=%v autoscale=%v)", i, e.Policy, e.LoadFactor, e.Chaos, e.Autoscale)
		if e.Policy == "" || e.Jobs <= 0 {
			return invalid("%s: missing identity fields", id)
		}
		for _, v := range []struct {
			name  string
			value float64
		}{
			{"lambda", e.LambdaJobsPerSec},
			{"loadFactor", e.LoadFactor},
			{"makespan", e.Makespan},
			{"throughput", e.ThroughputJobsPerSec},
			{"latencyP50", e.LatencyP50},
			{"latencyP99", e.LatencyP99},
			{"latencyMean", e.LatencyMean},
			{"latencyMax", e.LatencyMax},
		} {
			if !finite(v.value) || v.value <= 0 {
				return invalid("%s: non-positive or non-finite %s %v", id, v.name, v.value)
			}
		}
		if e.LatencyP50 > e.LatencyP99 || e.LatencyP99 > e.LatencyMax {
			return invalid("%s: latency quantiles out of order (p50 %v, p99 %v, max %v)",
				id, e.LatencyP50, e.LatencyP99, e.LatencyMax)
		}
		if e.MaxSliceWorkers < 1 || e.MaxSliceWorkers > len(f.Speeds) {
			return invalid("%s: max slice %d outside [1, %d]", id, e.MaxSliceWorkers, len(f.Speeds))
		}
		if !finite(e.MeanSliceWorkers) || e.MeanSliceWorkers <= 0 || e.MeanSliceWorkers > float64(e.MaxSliceWorkers) {
			return invalid("%s: mean slice %v inconsistent with max %d", id, e.MeanSliceWorkers, e.MaxSliceWorkers)
		}
		if !finite(e.MeanShippedPerJob) || e.MeanShippedPerJob <= 0 {
			return invalid("%s: non-positive mean shipped volume %v", id, e.MeanShippedPerJob)
		}
		if e.Autoscale {
			sawAutoscale = true
			if err := validateAutoscaleEntry(f, e, id); err != nil {
				return err
			}
		}
		if e.Admitted != e.Jobs-e.Rejected {
			return invalid("%s: admitted %d ≠ jobs %d − rejected %d", id, e.Admitted, e.Jobs, e.Rejected)
		}
		if e.Completed+e.Failed != e.Admitted {
			return invalid("%s: completed %d + failed %d ≠ admitted %d", id, e.Completed, e.Failed, e.Admitted)
		}
		if e.Violations != 0 {
			return invalid("%s: %d invariant violations", id, e.Violations)
		}
		if len(e.Tenants) == 0 {
			return invalid("%s: no tenant breakdown", id)
		}
		if !e.Chaos {
			// The policy gate compares uncapped runs only: the autoscale
			// entry trades slice width for link traffic and is judged by its
			// own gate below, not by the FIFO-vs-SRPT ordering.
			if e.LoadFactor == topLoad && !e.Autoscale {
				p99[e.Policy] = e.LatencyP99
			}
			for _, ta := range e.Tenants {
				if ta.WastedData != 0 || ta.ReclaimedCells != 0 || ta.Failed != 0 {
					return invalid("%s: fault-free tenant %s shows waste %v / reclaimed %v / failed %d",
						id, ta.Tenant, ta.WastedData, ta.ReclaimedCells, ta.Failed)
				}
			}
			continue
		}
		sawChaos = true
		var hammered *results.ServiceTenantStat
		for t := range e.Tenants {
			ta := &e.Tenants[t]
			if ta.Tenant == serviceChaosTenant {
				hammered = ta
				continue
			}
			// The isolation gate: a bystander tenant's ledger is *exact* —
			// crash recovery next door moved nothing of theirs.
			if ta.WastedData != 0 || ta.ReclaimedCells != 0 || ta.Failed != 0 {
				return invalid("%s: bystander tenant %s dirtied by chaos (waste %v, reclaimed %v, failed %d)",
					id, ta.Tenant, ta.WastedData, ta.ReclaimedCells, ta.Failed)
			}
			if ta.CommittedVolume != ta.PlanVolume {
				return invalid("%s: bystander tenant %s committed %v ≠ planned %v",
					id, ta.Tenant, ta.CommittedVolume, ta.PlanVolume)
			}
		}
		if hammered == nil {
			return invalid("%s: chaos entry has no %q tenant", id, serviceChaosTenant)
		}
		// ReplannedVolume is the *extra* traffic the survivor re-plans
		// added (CommittedVolume = PlanVolume + ReplannedVolume).
		if hammered.ReclaimedCells <= 0 || hammered.ReplannedVolume <= 0 {
			return invalid("%s: chaos scenario left no trace on tenant %q (reclaimed %v, replanned extra %v)",
				id, serviceChaosTenant, hammered.ReclaimedCells, hammered.ReplannedVolume)
		}
	}
	if !sawChaos {
		return invalid("no chaos entry — the isolation gate did not run")
	}
	if !sawAutoscale {
		return invalid("no autoscale entry — the capacity-model gate did not run")
	}
	fifo, ok := p99["fifo"]
	if !ok {
		return invalid("no fifo entry at the top load %.2f", topLoad)
	}
	for _, pol := range []string{"srpt", "ii"} {
		v, ok := p99[pol]
		if !ok {
			return invalid("no %s entry at the top load %.2f", pol, topLoad)
		}
		if v >= fifo {
			return invalid("%s p99 %.4fs does not beat fifo %.4fs at load %.2f — the naive baseline should lose",
				pol, v, fifo, topLoad)
		}
	}
	return nil
}

// validateAutoscaleEntry checks the capacity-model entry: a recorded
// knee for every job size, every admitted slice at or under its knee,
// and strictly less shipped volume per job than the uncapped entry at
// the same (policy, load) — the measured form of "workers past the knee
// cost bandwidth without buying speedup".
func validateAutoscaleEntry(f results.ServiceBenchFile, e results.ServiceBenchEntry, id string) error {
	if e.Chaos {
		return invalid("%s: autoscale entry doubles as the chaos entry — the gates must not share a run", id)
	}
	if e.AutoscaleTheta <= 0 || !finite(e.AutoscaleTheta) {
		return invalid("%s: autoscale entry without a positive theta (%v)", id, e.AutoscaleTheta)
	}
	if len(e.Knees) == 0 {
		return invalid("%s: autoscale entry recorded no knees", id)
	}
	maxKnee := 0
	for n, k := range e.Knees {
		if k < 1 || k > len(f.Speeds) {
			return invalid("%s: knee %d for n=%s outside [1, %d]", id, k, n, len(f.Speeds))
		}
		if k > maxKnee {
			maxKnee = k
		}
	}
	if e.SliceOverKnee != 0 {
		return invalid("%s: %d jobs sized past the capacity-model knee", id, e.SliceOverKnee)
	}
	if e.MaxSliceWorkers > maxKnee {
		return invalid("%s: max slice %d exceeds the largest knee %d", id, e.MaxSliceWorkers, maxKnee)
	}
	for _, b := range f.Entries {
		if b.Autoscale || b.Chaos || b.Policy != e.Policy || b.LoadFactor != e.LoadFactor {
			continue
		}
		if e.MeanShippedPerJob >= b.MeanShippedPerJob {
			return invalid("%s: autoscaler shipped %.1f elems/job, not below the uncapped %.1f at the same point — no dividend",
				id, e.MeanShippedPerJob, b.MeanShippedPerJob)
		}
		return nil
	}
	return invalid("%s: no uncapped baseline at (%s, %.2f) to compare against", id, e.Policy, e.LoadFactor)
}
