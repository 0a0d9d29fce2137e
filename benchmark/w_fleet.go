package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	goruntime "runtime"
	"runtime/metrics"
	"sync"
	"time"

	"nlfl/internal/capacity"
	"nlfl/internal/faults"
	"nlfl/internal/platform"
	nrt "nlfl/internal/runtime"
	"nlfl/internal/service"
	"nlfl/internal/trace"
)

var (
	fleetSpeeds  = []float64{1, 2, 3, 4}
	fleetTenants = []string{"tenant-a", "tenant-b", "tenant-c"}
)

// The modeled regime is BENCH_service.json's: token buckets and a booked
// one-port link slow enough that they, not the CPU, set the pace.
const (
	modeledRate      = 3e4
	modeledBandwidth = 2.5e4
	modeledTheta     = 0.05
	// modeledLoad is the offered share of the fleet's compute capacity
	// (28.4 jobs/s). At 0.6 the queue sits close enough to saturation on
	// a two-core host that one run's latency_p50_ms read 51 ms and the
	// next 77 ms; at 0.4 six runs held it within 28–30 ms.
	modeledLoad = 0.4
	// chaosEvery: every twentieth job carries the crash scenario. With
	// every tenth, latency_p90_ms sits on the edge between the clean and
	// the crashed population and jumps between them (228–600 ms).
	chaosEvery     = 20
	fleetSpotCells = 16
	depthSampleHz  = 100
)

// modeledCapacity is the modeled fleet's aggregate compute rate in cells/s.
func modeledCapacity() float64 { return sum(fleetSpeeds) * modeledRate }

// sizeMix is a job-size distribution.
type sizeMix []struct {
	n    int
	prob float64
}

var (
	saturatedSizes = sizeMix{{128, 1.0 / 3}, {256, 1.0 / 3}, {512, 1.0 / 3}}
	modeledSizes   = sizeMix{{48, 0.5}, {64, 0.3}, {96, 0.2}}
)

// draw picks one size with the mix's probabilities.
func (mix sizeMix) draw(r *rand.Rand) int {
	u, acc := r.Float64(), 0.0
	for _, s := range mix {
		acc += s.prob
		if u < acc {
			return s.n
		}
	}
	return mix[len(mix)-1].n
}

// deck returns n sizes in the mix's exact proportions (to rounding),
// shuffled: an open loop that draws its sizes from a deck offers the
// same total work whatever the seed.
func (mix sizeMix) deck(r *rand.Rand, n int) []int {
	sizes := make([]int, 0, n)
	acc := 0.0
	for _, s := range mix {
		acc += s.prob
		for len(sizes) < int(math.Round(acc*float64(n))) {
			sizes = append(sizes, s.n)
		}
	}
	r.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	return sizes
}

func (mix sizeMix) meanCells() float64 {
	mean := 0.0
	for _, s := range mix {
		mean += s.prob * float64(s.n) * float64(s.n)
	}
	return mean
}

// fleetInstance is one in-process service.Fleet plus the inputs its jobs
// draw from.
type fleetInstance struct {
	modeled    bool
	nproc      int
	cfg        service.Config
	fleet      *service.Fleet
	epoch      time.Time // the fleet clock's zero, to within service.New's own duration
	sizes      sizeMix
	strategies []string
	warmJobs   int
	// inputs holds one pair of seeded vectors per job size: the program
	// under test sees only these.
	inputs map[int][2][]float64
}

func setupFleet(rc *runConfig, modeled bool) (instance, error) {
	fi := &fleetInstance{modeled: modeled, nproc: rc.nproc, inputs: map[int][2][]float64{}}
	if modeled {
		fi.sizes, fi.strategies, fi.warmJobs = modeledSizes, []string{"het"}, 6
		fi.cfg = service.Config{
			Speeds:           fleetSpeeds,
			WorkPerSecond:    modeledRate,
			Link:             nrt.Link{ElemsPerSecond: modeledBandwidth},
			Policy:           service.PolicySRPT,
			AutoscaleTheta:   modeledTheta,
			AgingCellsPerSec: 0.2 * modeledCapacity(),
			// Roomy admission: an open loop must queue, not shed.
			MaxQueue:    4096,
			TenantQuota: 4096,
			VerifyEvery: 1009,
		}
	} else {
		fi.sizes, fi.strategies, fi.warmJobs = saturatedSizes, []string{"hom", "hom/k", "het"}, 270
		fi.cfg = service.Config{
			Speeds:        fleetSpeeds,
			WorkPerSecond: unthrottledRate,
			Policy:        service.PolicySRPT,
			VerifyEvery:   1009,
		}
	}
	r := rand.New(rand.NewSource(rc.seed))
	for _, s := range fi.sizes {
		fi.inputs[s.n] = [2][]float64{uniformVec(r, s.n), uniformVec(r, s.n)}
	}
	t0 := time.Now()
	fleet, err := service.New(fi.cfg)
	if err != nil {
		return nil, err
	}
	fi.fleet, fi.epoch = fleet, t0.Add(time.Since(t0)/2)
	// Warm-up: every size and strategy in turn (the first job of a process
	// pays the kernel autotune and a 40 ms cold start) until the heap has
	// its working size, and in the modeled regime one chaos job.
	for i := 0; i < fi.warmJobs; i++ {
		n, strat := fi.sizes[i%len(fi.sizes)].n, fi.strategies[i/len(fi.sizes)%len(fi.strategies)]
		if err := fi.runJob(&opCtx{rng: r}, fi.spec(n, strat, fleetTenants[0], false)); err != nil {
			fleet.Close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	if modeled {
		if err := fi.runJob(&opCtx{rng: r}, fi.spec(fi.sizes[0].n, "het", fleetTenants[0], true)); err != nil {
			fleet.Close()
			return nil, fmt.Errorf("warm-up chaos job: %w", err)
		}
	}
	return fi, nil
}

func (fi *fleetInstance) spec(n int, strategy, tenant string, chaos bool) service.JobSpec {
	in := fi.inputs[n]
	spec := service.JobSpec{Tenant: tenant, N: n, Strategy: strategy, A: in[0], B: in[1]}
	if chaos {
		// Job-scoped: the fastest worker dies 5 ms into this job; the
		// fleet re-plans its share onto the job's survivors.
		spec.Chaos = service.ChaosSpec{Scenario: faults.SingleCrash(3, 0.005), MaxRetries: 4}
	}
	return spec
}

// draw picks one clean job of the workload's mix.
func (fi *fleetInstance) draw(r *rand.Rand) service.JobSpec {
	n := fi.sizes.draw(r)
	return fi.spec(n, fi.strategies[r.Intn(len(fi.strategies))], fleetTenants[r.Intn(len(fleetTenants))], false)
}

// runJob is one closed-loop op: Submit, Wait, audit, verify.
func (fi *fleetInstance) runJob(c *opCtx, spec service.JobSpec) error {
	h, err := fi.submit(c, spec)
	if err != nil {
		return err
	}
	sw := c.tr.start("JobHandle.Wait", "service", rootSpan)
	rep, err := h.Wait(context.Background())
	c.tr.end(sw)
	if err != nil {
		return fmt.Errorf("job %d: %w", h.ID(), err)
	}
	sc := c.tr.start("trace.Check", "trace", rootSpan)
	checkSeconds, err := auditJob(rep)
	c.tr.end(sc)
	if err != nil {
		return err
	}
	sv := c.tr.start("spot-verify", "benchmark", rootSpan)
	err = checkOutput(spec, rep, c.rng)
	c.tr.end(sv)
	if err != nil {
		return err
	}
	if c.tr != nil {
		c.after = func() { fi.observe(c, rep, sw, checkSeconds) }
	}
	return nil
}

func (fi *fleetInstance) submit(c *opCtx, spec service.JobSpec) (*service.JobHandle, error) {
	ss := c.tr.start("Fleet.Submit", "service", rootSpan)
	t0 := time.Now()
	h, err := fi.fleet.Submit(spec)
	if c.tr != nil {
		c.obs.add("service.submit_p50_us", 1e6*time.Since(t0).Seconds())
	}
	c.tr.end(ss)
	return h, err
}

// auditJob puts a finished job's trace under the invariant oracle and
// returns the seconds the oracle took.
func auditJob(rep *service.JobReport) (float64, error) {
	if rep.Failed {
		return 0, fmt.Errorf("job %d failed: %s", rep.ID, rep.Err)
	}
	t0 := time.Now()
	vs := trace.Check(rep.Trace, rep.Expect(1e-9))
	seconds := time.Since(t0).Seconds()
	if len(vs) > 0 {
		return seconds, fmt.Errorf("job %d: %d oracle violations, first: %v", rep.ID, len(vs), vs[0])
	}
	return seconds, nil
}

// checkOutput checks a finished job from outside: the shipping ledger
// closes exactly (a clean job commits its plan's volume and wastes
// nothing; a chaos job commits the plan plus what re-planning added) and
// sampled output cells equal a[i]·b[j].
func checkOutput(spec service.JobSpec, rep *service.JobReport, r *rand.Rand) error {
	want := rep.PlanVolume
	if rep.Chaos {
		want += rep.ReplannedVolume
	}
	if rep.CommittedVolume != want {
		return fmt.Errorf("job %d: committed volume %v ≠ planned %v", rep.ID, rep.CommittedVolume, want)
	}
	if !rep.Chaos && rep.WastedData != 0 {
		return fmt.Errorf("job %d: clean job wasted %v", rep.ID, rep.WastedData)
	}
	if err := spotVerify(rep.Out, spec.A, spec.B, r, fleetSpotCells); err != nil {
		return fmt.Errorf("job %d: %w", rep.ID, err)
	}
	return nil
}

// observe files a traced job's layer figures and hangs the report's
// phases under waitSpan.
func (fi *fleetInstance) observe(c *opCtx, rep *service.JobReport, waitSpan int, checkSeconds float64) {
	c.obs.add("service.queue_wait_p50_ms", 1e3*(rep.StartTime-rep.SubmitTime))
	c.obs.add("service.exec_p50_ms", 1e3*(rep.DoneTime-rep.StartTime))
	c.obs.add("service.data_shipped", rep.DataShipped)
	c.obs.add("service.wasted_data", rep.WastedData)
	if rep.Chaos {
		c.obs.add("service.reclaimed_cells_per_chaos_job", float64(rep.ReclaimedCells))
	}
	if rep.Autoscaled && !rep.Chaos && rep.PredictedMakespan > 0 {
		c.obs.add("capacity.residual_p50", math.Abs(rep.Makespan/rep.PredictedMakespan-1))
	}
	spans := 0
	for _, row := range rep.Trace.Spans {
		spans += len(row)
	}
	if spans > 0 {
		c.obs.add("trace.check_ns_per_span", 1e9*checkSeconds/float64(spans))
	}
	// Fleet-clock times map onto the phase clock through the epoch taken
	// around service.New.
	off := fi.epoch.Sub(c.tr.clk.epoch).Seconds()
	c.tr.add(span{Name: "queued (SubmitTime→StartTime)", Layer: "service", Parent: waitSpan,
		Start: off + rep.SubmitTime, End: off + rep.StartTime, Derived: true})
	exec := c.tr.add(span{Name: "exec (StartTime→DoneTime)", Layer: "service", Parent: waitSpan,
		Start: off + rep.StartTime, End: off + rep.DoneTime, Derived: true})
	addWorkerSpans(c.tr, exec, rep.Trace, off)
}

// phaseCounters are the process-wide figures read before and after a
// traced phase.
type phaseCounters struct {
	mem       goruntime.MemStats
	mutexWait float64
	acct      service.FleetReport
}

const mutexWaitMetric = "/sync/mutex/wait/total:seconds"

func (fi *fleetInstance) counters() phaseCounters {
	var pc phaseCounters
	goruntime.ReadMemStats(&pc.mem)
	s := []metrics.Sample{{Name: mutexWaitMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		pc.mutexWait = s[0].Value.Float64()
	}
	pc.acct = fi.fleet.Accounting()
	return pc
}

// sampleDepth reads Fleet.QueueDepth at depthSampleHz during the traced
// blocks of the phase until stop closes, and returns the mean.
func (fi *fleetInstance) sampleDepth(clk phaseClock, rec *recorder, stop <-chan struct{}) float64 {
	tick := time.NewTicker(time.Second / depthSampleHz)
	defer tick.Stop()
	sum, n := 0.0, 0
	for {
		select {
		case <-stop:
			if n == 0 {
				return 0
			}
			return sum / float64(n)
		case <-tick.C:
			if tracedAt(rec, clk.now()) {
				sum += float64(fi.fleet.QueueDepth())
				n++
			}
		}
	}
}

func (fi *fleetInstance) measure(d time.Duration, seed int64, rec *recorder) (*measurement, error) {
	var before phaseCounters
	stop := make(chan struct{})
	depth := make(chan float64, 1)
	if rec != nil {
		before = fi.counters()
		// The sampler's clock starts a few microseconds before the loop's;
		// at 100 Hz the skew is nothing.
		go func() { depth <- fi.sampleDepth(phaseClock{time.Now()}, rec, stop) }()
	}
	var m *measurement
	if fi.modeled {
		m = fi.openLoop(d, seed, rec)
	} else {
		m = closedLoop(d, fi.nproc, seed, rec, selfCPUSeconds, func(c *opCtx) error { return fi.runJob(c, fi.draw(c.rng)) })
	}
	m.peakRSSMB = peakRSSMB("self")
	if rec == nil {
		return m, nil
	}
	close(stop)
	m.layer["service.queue_depth_mean"] = <-depth
	after := fi.counters()
	jobs := float64(after.acct.Completed - before.acct.Completed)
	if jobs > 0 {
		m.layer["service.mutex_wait_us_per_job"] = 1e6 * (after.mutexWait - before.mutexWait) / jobs
		m.layer["service.allocs_per_job"] = float64(after.mem.Mallocs-before.mem.Mallocs) / jobs
		m.layer["service.alloc_kb_per_job"] = float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / 1024 / jobs
	}
	if m.span > 0 {
		m.layer["service.gc_cycles_per_s"] = float64(after.mem.NumGC-before.mem.NumGC) / m.span
	}
	if sub := after.acct.Submitted - before.acct.Submitted; sub > 0 {
		m.layer["service.rejected_frac"] = float64(after.acct.Rejected-before.acct.Rejected) / float64(sub)
	}
	for _, name := range []string{"service.submit_p50_us", "service.queue_wait_p50_ms", "service.exec_p50_ms",
		"capacity.residual_p50", "trace.check_ns_per_span"} {
		m.layer[name] = m.obs.p50(name)
	}
	m.layer["service.reclaimed_cells_per_chaos_job"] = m.obs.mean("service.reclaimed_cells_per_chaos_job")
	if shipped := sum(m.obs["service.data_shipped"]); shipped > 0 {
		m.layer["service.wasted_data_frac"] = sum(m.obs["service.wasted_data"]) / shipped
	}
	return m, nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// pendingJob is an open-loop op between its send and its completion.
type pendingJob struct {
	spec     service.JobSpec
	h        *service.JobHandle
	due      float64
	tr       *opTrace
	waitSpan int
}

type completion struct {
	job *pendingJob
	end float64
}

// openLoop offers a Poisson stream at modeledLoad of the fleet's
// capacity for d, then waits for the jobs in flight. One goroutine sends
// on schedule, one verifies completions; between them each job has a
// parked forwarder that only timestamps its Done channel. Every
// chaosEvery-th job carries the crash scenario.
func (fi *fleetInstance) openLoop(d time.Duration, seed int64, rec *recorder) *measurement {
	r := rand.New(rand.NewSource(seed))
	jobs := int(math.Round(modeledLoad * modeledCapacity() / fi.sizes.meanCells() * d.Seconds()))
	dues := poissonSchedule(r, jobs, d.Seconds())
	sizes := fi.sizes.deck(r, jobs)

	cpu0 := selfCPUSeconds()
	clk := phaseClock{time.Now()}
	sender, waiter := newGenerator(), newGenerator()
	// Sized to the number of sends: a forwarder never blocks on the waiter.
	done := make(chan completion, len(dues))
	var forwarders sync.WaitGroup
	var lag []float64

	finished := make(chan struct{})
	go func() {
		defer close(finished)
		vr := rand.New(rand.NewSource(seed + 1))
		for cp := range done {
			j := cp.job
			c := &opCtx{rng: vr, tr: j.tr, obs: waiter.obs}
			if j.tr != nil {
				j.tr.spans[j.waitSpan].End = cp.end
			}
			j.tr.endOp(cp.end)
			// Verification is off the op's clock: an open-loop caller's
			// latency ends when the result is there.
			rep := j.h.Report()
			if rep == nil {
				waiter.record(sample{due: j.due, end: cp.end}, j.tr,
					fmt.Errorf("job %d: done without a report", j.h.ID()))
				continue
			}
			checkSeconds, err := auditJob(rep)
			if err == nil {
				err = checkOutput(j.spec, rep, vr)
			}
			if err == nil && j.tr != nil {
				fi.observe(c, rep, j.waitSpan, checkSeconds)
			}
			waiter.record(sample{due: j.due, end: cp.end, ok: true}, j.tr, err)
		}
	}()

	for i, due := range dues {
		sleepUntil(clk, due)
		lag = append(lag, clk.now()-due)
		j := &pendingJob{spec: fi.spec(sizes[i], "het", fleetTenants[r.Intn(len(fleetTenants))], i%chaosEvery == chaosEvery-1),
			due: due, tr: rec.begin(clk, due)}
		c := &opCtx{rng: r, obs: sender.obs, tr: j.tr}
		h, err := fi.submit(c, j.spec)
		if err != nil {
			end := clk.now()
			j.tr.endOp(end)
			sender.record(sample{due: due, end: end}, j.tr, err)
			continue
		}
		j.h = h
		j.waitSpan = j.tr.start("JobHandle.Done", "service", rootSpan)
		forwarders.Add(1)
		go func() {
			defer forwarders.Done()
			<-h.Done()
			done <- completion{j, clk.now()}
		}()
	}
	forwarders.Wait()
	close(done)
	<-finished

	m := collect([]*generator{sender, waiter})
	m.lag, m.cpuSeconds = lag, selfCPUSeconds()-cpu0
	return m
}

// probes times the layers under the fleet at its job sizes: the planners
// and the capacity model that Submit calls, and the bare runtime on the
// plan a lone job gets.
func (fi *fleetInstance) probes(m *measurement) error {
	pl, err := platform.FromSpeeds(fleetSpeeds)
	if err != nil {
		return err
	}
	var het, homk, rec []float64
	for _, s := range fi.sizes {
		het = append(het, 1e6*bestOf(5, func() {
			if _, e := nrt.PlanHet(pl, s.n); e != nil {
				err = e
			}
		}))
		homk = append(homk, 1e6*bestOf(5, func() {
			if _, e := nrt.PlanHomK(pl, s.n, 0.01, 0); e != nil {
				err = e
			}
		}))
		model := capacity.Model{Alpha: 2, N: s.n, Speeds: fleetSpeeds,
			WorkPerSecond: fi.cfg.WorkPerSecond, Bandwidth: fi.cfg.Link.ElemsPerSecond}
		rec = append(rec, 1e6*bestOf(5, func() {
			if _, e := model.Recommend(modeledTheta); e != nil {
				err = e
			}
		}))
	}
	if err != nil {
		return err
	}
	m.layer["runtime.plan_het_us"] = sum(het) / float64(len(het))
	m.layer["runtime.plan_homk_us"] = sum(homk) / float64(len(homk))
	m.layer["capacity.recommend_us"] = sum(rec) / float64(len(rec))

	var ratios []float64
	for _, s := range fi.sizes {
		for _, strat := range fi.strategies {
			ratio, err := fi.overRuntime(s.n, strat)
			if err != nil {
				return err
			}
			ratios = append(ratios, ratio)
		}
	}
	m.layer["service.over_runtime_ratio"] = median(ratios)
	return nil
}

// overRuntime is the latency of a lone job on the idle fleet over the
// wall time of runtime.Run on the same size, strategy, slice speeds and
// throttles — the fleet's framework overhead as a ratio. Medians of five.
func (fi *fleetInstance) overRuntime(n int, strategy string) (float64, error) {
	spec := fi.spec(n, strategy, fleetTenants[0], false)
	var slice []int
	fleetTimes := make([]float64, 5)
	for i := range fleetTimes {
		t0 := time.Now()
		h, err := fi.fleet.Submit(spec)
		if err != nil {
			return 0, err
		}
		rep, err := h.Wait(context.Background())
		if err != nil {
			return 0, err
		}
		fleetTimes[i], slice = time.Since(t0).Seconds(), rep.Workers
	}
	speeds := make([]float64, len(slice))
	for i, w := range slice {
		speeds[i] = fleetSpeeds[w]
	}
	pl, err := platform.FromSpeeds(speeds)
	if err != nil {
		return 0, err
	}
	var plan *nrt.StrategyPlan
	switch strategy {
	case "hom":
		plan, err = nrt.PlanHom(pl, n)
	case "hom/k":
		plan, err = nrt.PlanHomK(pl, n, 0.01, 0)
	default:
		plan, err = nrt.PlanHet(pl, n)
	}
	if err != nil {
		return 0, err
	}
	opts := nrt.Options{Speeds: speeds, WorkPerSecond: fi.cfg.WorkPerSecond, Link: fi.cfg.Link, VerifyEvery: fi.cfg.VerifyEvery}
	runWall, _, err := bareRuns(plan, spec.A, spec.B, opts, 5)
	if err != nil {
		return 0, err
	}
	return median(fleetTimes) / runWall, nil
}

func (fi *fleetInstance) close() error {
	fi.fleet.Close()
	return nil
}
