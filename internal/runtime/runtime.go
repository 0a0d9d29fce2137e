package runtime

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"nlfl/internal/matmul"
	"nlfl/internal/trace"
)

// Typed failures of a resilient run.
var (
	// ErrWorkerFailed marks a run lost to worker death: a goroutine
	// panicked, a crashed worker's chunk had no retry budget left, or no
	// worker survived to finish the domain.
	ErrWorkerFailed = errors.New("runtime: worker failed")
	// ErrTransferFailed marks a run lost to the network: a chunk's
	// transfer was dropped more times than the retry budget allows.
	ErrTransferFailed = errors.New("runtime: transfer failed")
)

// Options configures the worker pool.
type Options struct {
	// Speeds are the workers' relative speeds (one entry per worker, all
	// positive). Required.
	Speeds []float64
	// WorkPerSecond is the cell-update rate of a speed-1 worker — the
	// token-bucket refill scale. 0 selects 2e6 cells/s, fast enough for
	// sub-second benches yet slow enough that the throttle (not the real
	// CPU) sets the pace, so relative speeds are honored even on one core.
	WorkPerSecond float64
	// Shards is the shared-queue stripe count; 0 selects one stripe per
	// worker, so each worker's home stripe is its own — pops are
	// uncontended until its stripe drains and stealing begins.
	Shards int
	// Burst is the token-bucket capacity in cells; 0 selects 5 ms of
	// credit at the worker's rate.
	Burst float64
	// VerifyEvery, when positive, spot-checks every VerifyEvery-th output
	// cell against a[i]·b[j] after the run and fails the run on mismatch.
	VerifyEvery int
	// Link models the master's outgoing bandwidth (see Link); the zero
	// value ships chunk inputs at memcpy speed. Link is the star-shaped
	// shorthand for Topology and cannot be combined with it.
	Link Link
	// Topology selects the modeled network shape (star, linear
	// daisy-chain, two-source — see Topology). nil with a zero Link
	// ships at memcpy speed; setting Link is equivalent to the Star
	// topology with Link's rates. Mutually exclusive with Link.
	Topology Topology
	// Prefetch enables double-buffered prefetch: while a worker computes
	// one chunk it claims and transfers the next, overlapping the
	// transfer with the current chunk's compute. The overlapped fraction
	// is reported in Report.OverlapFraction. Prefetch cannot be combined
	// with Chaos: a prefetched chunk is a second outstanding lease, which
	// the recovery machinery does not track.
	Prefetch bool
	// Chaos enables the fault-injection layer and its survival machinery
	// (see Chaos). The zero value selects the fault-free fast path.
	Chaos Chaos
	// Virtual runs the fast path on a virtual clock (see virtualClock):
	// the workers take turns in modeled time, the token buckets and link
	// windows advance the clock instead of sleeping, and the real copies
	// and fills take no modeled time. The run is then bit-reproducible —
	// the same chunk hand-out, spans and makespan on every run — and its
	// times are the model's, not the host's. Virtual cannot be combined
	// with Chaos, whose faults are timed on the wall clock.
	Virtual bool

	// testHookChunkStart, when set, runs on the worker goroutine right
	// after a chunk is claimed and before its transfer starts — the
	// in-package test seam for forcing panics and interleavings.
	testHookChunkStart func(w int, c Chunk)
}

// Report is the outcome of one measured run.
type Report struct {
	// Strategy, N, Grid and K echo the executed plan.
	Strategy string
	N        int
	Grid     int
	K        int
	// Workers is the pool size, Chunks the number of chunks executed.
	Workers int
	Chunks  int
	// Predicted is the plan's closed-form communication volume.
	Predicted float64
	// DataVolume is the measured volume: vector elements actually copied
	// into worker-local buffers, summed over chunks — retries, drops and
	// speculative duplicates included.
	DataVolume float64
	// WorkCells is the total output cells computed (= N² for a full run).
	WorkCells float64
	// Makespan is the wall-clock run time in seconds.
	Makespan float64
	// PerWorkerData and PerWorkerCells split DataVolume and WorkCells by
	// worker — the measured footprint behind the paper's Figure 2.
	PerWorkerData  []float64
	PerWorkerCells []float64
	// CommTime is the total measured communication seconds summed over
	// workers; PerWorkerCommTime splits it by worker. Under the link
	// model these are the modeled transfer windows, so CommTime ≈
	// DataVolume/bandwidth when the shared port is the bottleneck.
	CommTime          float64
	PerWorkerCommTime []float64
	// OverlapFraction is the fraction of communication time hidden under
	// the same worker's compute spans — ~0 without prefetch, approaching
	// 1 when transfers are fully pipelined behind compute.
	OverlapFraction float64
	// LinkUtilization is each worker's delivery-comm-busy fraction of
	// the makespan — how long its final incoming hop was occupied. On
	// multi-hop topologies this is a per-worker view only; Edges carries
	// the per-edge occupancy that generalizes it.
	LinkUtilization []float64
	// LinkCapacity is the star aggregate master-port rate (0 when the
	// shared port was unconstrained or the topology is not a star);
	// Expect threads it to the trace oracle's aggregate link-capacity
	// invariant. Per-edge capacities — meaningful on every topology —
	// are in Edges and are what Expect's per-edge sweep audits.
	LinkCapacity float64
	// Topology names the modeled network ("star", "chain", "two-source";
	// "" when transfers ran at memcpy speed).
	Topology string
	// Edges is the per-edge measured traffic (nil without a network
	// model): booked volume (drops included), busy seconds, and
	// busy/makespan utilization.
	Edges []EdgeReport
	// RelayVolume is the data that crossed intermediate hops (chain
	// forwarding traffic; 0 on single-hop topologies). DataVolume counts
	// delivered payloads only — relays are extra network occupancy, not
	// extra deliveries.
	RelayVolume float64
	// SpanRoutes[w] lists the edge ids worker w's delivery Comm spans
	// occupy (trace.Expect.Routes); nil rows are unconstrained workers.
	SpanRoutes [][]int

	// Chaos reports whether the run executed under the fault-injection
	// layer; the recovery ledger below is zero without it.
	Chaos bool
	// RetriedChunks counts transfer attempts lost to link drops and
	// retried after backoff.
	RetriedChunks int
	// SpeculativeWins counts chunks whose committed copy was a
	// speculative re-execution rather than the original holder's.
	SpeculativeWins int
	// DegradedWorkers counts workers that died permanently.
	DegradedWorkers int
	// ReclaimedCells counts output cells reclaimed from dead workers and
	// re-planned onto survivors.
	ReclaimedCells float64
	// PlanVolume is the executed plan's geometric volume Σ(wᵢ+hᵢ): the
	// realized closed form, equal to Predicted on snapped platforms and
	// the analytic floor no faulty run can undercut.
	PlanVolume float64
	// CommittedVolume is the data shipped for winning commits only;
	// ReplannedVolume is PlanVolume plus the extra volume survivor
	// re-planning added — the survivor-re-planned closed form that
	// CommittedVolume matches exactly on a clean run. WastedData is the
	// shipping burned by drops, crashed workers' in-flight inputs and
	// losing speculative copies: DataVolume = CommittedVolume +
	// WastedData.
	CommittedVolume float64
	ReplannedVolume float64
	WastedData      float64
	// WastedWorkCells are compute cells burned by losing speculative
	// copies; LostWorkCells are cells destroyed mid-chunk by crashes.
	WastedWorkCells float64
	LostWorkCells   float64

	// Out is the computed product.
	Out *matmul.Matrix
	// Trace is the run's audited timeline (wall-clock seconds).
	Trace *trace.Timeline
}

// Expect returns the invariant-oracle expectations for the run: exact
// work conservation (every cell computed once), the exact shipping ledger,
// the strategy's analytic volume bound within relTol, and — when the run
// modeled a network — the aggregate link-capacity invariant (star) plus
// the per-edge capacity sweep and per-edge volume ledger over the
// topology's edges. Fault-free runs pin the measured volume to the closed form
// exactly; chaos runs switch to the no-free-lunch floor (faults only ever
// add traffic, so the executed plan's volume bounds the measured volume
// from below) and arm the exactly-once invariant, with the waste ledger
// threaded through.
func (r *Report) Expect(relTol float64) *trace.Expect {
	nn := float64(r.N) * float64(r.N)
	e := &trace.Expect{
		HasWork:       true,
		TotalWork:     nn,
		ProcessedWork: nn,
		HasComm:       true,
		ShippedData:   r.DataVolume,
		Bound:         r.Predicted,
		BoundKind:     trace.BoundExact,
		BoundName:     "Comm_" + r.Strategy,
		LinkCapacity:  r.LinkCapacity,
		Tol:           relTol,
	}
	if r.Chaos {
		e.Bound = r.PlanVolume
		e.BoundKind = trace.BoundLower
		e.BoundName = "Comm_" + r.Strategy + " plan floor"
		e.ExactlyOnce = true
		e.WastedWork = r.WastedWorkCells
		e.LostWork = r.LostWorkCells
	}
	if len(r.Edges) > 0 {
		e.Edges = make([]trace.ExpectEdge, len(r.Edges))
		for i, ed := range r.Edges {
			e.Edges[i] = trace.ExpectEdge{Name: ed.Name, Capacity: ed.Capacity, Volume: ed.Volume, HasVolume: true}
		}
		e.Routes = r.SpanRoutes
	}
	return e
}

// staged is one chunk whose inputs have been shipped into worker-local
// buffers (its Comm span is recorded when the transfer lands).
type staged struct {
	c          Chunk
	aBuf, bBuf []float64
}

// transfer is one chunk's shipment in flight: its inputs are copied and,
// when booked on the modeled network, its delivery window [t0, t1] and
// relay windows are reserved; otherwise [t0, t1] is the measured memcpy.
type transfer struct {
	c          Chunk
	aBuf, bBuf []float64
	t0, t1     float64
	booked     bool
	relays     []bookedWindow
}

// runner is the shared state of one Run: inputs, throttles, ledgers and
// the failure latch. The fast path touches only the fault-free subset;
// the chaos path adds the mutex-guarded recovery ledger.
type runner struct {
	opts Options
	a, b []float64
	n    int
	rate float64

	out      *matmul.Matrix
	live     *trace.Live
	vc       *virtualClock // nil on the wall clock
	net      *netLink
	perData  []float64 // written only by each worker's own goroutine
	perCells []float64

	// Largest chunk extents in the plan — the workers size their transfer
	// buffers once from these, so the per-chunk loop never allocates.
	maxRowSpan, maxColSpan int

	// ledgers[w] is worker w's private recovery ledger (chaos runs only);
	// each worker writes only its own entry and the entries are merged
	// into the totals below after wg.Wait, so the hot path takes no lock.
	ledgers []chaosLedger

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu  sync.Mutex
	err error
	// chaos totals (mu-guarded during the run for the cold reclamation
	// path; the per-worker ledgers fold in after the pool stops)
	committedChunks             []Chunk
	committedVolume, wastedData float64
	wastedWork, lostWork        float64
	replanExtra                 float64
	reclaimedCells              int
	retried, specWins, degraded int
}

// chaosLedger is one worker's lock-free recovery ledger. Ledgers sit in a
// contiguous array, so each is padded to 128 bytes: every chunk bumps its
// owner's counters and unpadded neighbours would false-share cache lines.
type chaosLedger struct {
	committed         []Chunk
	committedVolume   float64
	wastedData        float64
	wastedWork        float64
	retried, specWins int
	_                 [64]byte // committed(24) + 3×8 + 2×8 = 64 → pad to 128
}

// merge folds the per-worker ledgers into the mu-guarded totals. Call
// only after every worker goroutine has stopped.
func (r *runner) mergeLedgers() {
	for i := range r.ledgers {
		led := &r.ledgers[i]
		r.committedChunks = append(r.committedChunks, led.committed...)
		r.committedVolume += led.committedVolume
		r.wastedData += led.wastedData
		r.wastedWork += led.wastedWork
		r.retried += led.retried
		r.specWins += led.specWins
	}
}

// fail latches the first failure and cancels every worker.
func (r *runner) fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
	r.cancel()
}

// now reads the run's clock: virtual seconds under Options.Virtual, the
// live recording's wall seconds otherwise.
func (r *runner) now() float64 {
	if r.vc != nil {
		return r.vc.Now()
	}
	return r.live.Now()
}

// waitUntil parks worker w until the booked instant t has passed on the
// run's clock; false means the run was cancelled.
func (r *runner) waitUntil(w int, t float64) bool {
	if r.vc != nil {
		r.vc.sleepUntil(w, t)
		return r.ctx.Err() == nil
	}
	return r.net.wait(r.ctx, t)
}

// throttle builds worker w's token bucket on the run's clock.
func (r *runner) throttle(w int) *tokenBucket {
	tb := newTokenBucket(r.opts.Speeds[w]*r.rate, r.opts.Burst)
	if vc := r.vc; vc != nil {
		tb.now, tb.last = vc.Now, vc.Now()
		tb.sleep = func(d float64) { vc.sleepUntil(w, vc.Now()+d) }
	}
	return tb
}

func (r *runner) runErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// noteLost records cells destroyed mid-chunk by a crash. It stays
// mu-guarded: it runs once per death, immediately before the (also
// mu-guarded) reclamation in die, never on the steady-state path.
func (r *runner) noteLost(cells float64) {
	r.mu.Lock()
	r.lostWork += cells
	r.mu.Unlock()
}

// guard runs one worker body with panic containment: a panicking worker
// used to take the whole process down (goroutine panics are fatal) or —
// with recovery but no latch — leave wg.Wait stuck behind siblings
// blocked on a link booking. Now it latches ErrWorkerFailed and cancels
// the run.
func (r *runner) guard(w int, body func(int)) {
	defer r.wg.Done()
	if r.vc != nil {
		r.vc.enter(w)
		defer r.vc.leave(w)
	}
	defer func() {
		if rec := recover(); rec != nil {
			r.fail(fmt.Errorf("%w: worker %d panicked: %v", ErrWorkerFailed, w, rec))
		}
	}()
	body(w)
}

// Run executes the plan on real vectors — RunContext without external
// cancellation.
func Run(plan *StrategyPlan, a, b []float64, opts Options) (*Report, error) {
	return RunContext(context.Background(), plan, a, b, opts)
}

// RunContext executes the plan on real vectors: len(Speeds) goroutine
// workers pull chunks from the sharded queue, ship each chunk's a̅/b̅
// intervals into worker-local buffers (the Comm span — paced by the
// bandwidth model when Options.Link is set, raw memcpy otherwise), pay
// the chunk's area to their token bucket and fill the output rectangle
// through matmul.OuterFill (the Compute span). With Options.Prefetch
// each worker double-buffers: the next chunk's transfer runs while the
// current chunk computes. With Options.Chaos the pool runs the resilient
// path instead: scenario faults are injected on the live goroutines and
// survived via leases, retries, speculation and survivor re-planning
// (see Chaos). Cancelling ctx stops the pool at the next chunk boundary
// and returns ctx's error. The returned report carries the product, the
// measured per-worker traffic and comm time, the comm/compute overlap
// fraction, the recovery ledger, and the trace.Live timeline of the run.
func RunContext(ctx context.Context, plan *StrategyPlan, a, b []float64, opts Options) (*Report, error) {
	n := plan.N
	if len(a) != n || len(b) != n {
		return nil, fmt.Errorf("runtime: plan is for N=%d, got vectors of %d and %d", n, len(a), len(b))
	}
	if n == 0 {
		return nil, fmt.Errorf("runtime: empty vectors")
	}
	p := len(opts.Speeds)
	if p == 0 {
		return nil, fmt.Errorf("runtime: need at least one worker speed")
	}
	for i, s := range opts.Speeds {
		if s <= 0 {
			return nil, fmt.Errorf("runtime: worker %d has non-positive speed %v", i, s)
		}
	}
	if lp := len(opts.Link.PerWorker); lp != 0 && lp != p {
		return nil, fmt.Errorf("runtime: %d per-worker link rates for %d workers", lp, p)
	}
	topo := opts.Topology
	if topo != nil {
		if opts.Link.Enabled() {
			return nil, fmt.Errorf("runtime: Options.Topology and Options.Link are mutually exclusive (Link is the star shorthand)")
		}
		if err := topo.Validate(p); err != nil {
			return nil, err
		}
	} else {
		topo = starFromLink(opts.Link, p)
	}
	for _, c := range plan.Chunks {
		if c.RowLo < 0 || c.ColLo < 0 || c.RowHi > n || c.ColHi > n || c.Cells() <= 0 {
			return nil, fmt.Errorf("runtime: chunk %d has invalid bounds rows[%d,%d) cols[%d,%d)", c.Task, c.RowLo, c.RowHi, c.ColLo, c.ColHi)
		}
		if c.Owner >= p {
			return nil, fmt.Errorf("runtime: chunk %d owned by worker %d of %d", c.Task, c.Owner, p)
		}
	}
	// Σcells == n² alone is satisfiable by overlaps plus a gap of the
	// same area; require an exact tiling.
	if err := checkTiling(n, plan.Chunks); err != nil {
		return nil, err
	}
	chaosOn := opts.Chaos.Enabled()
	if chaosOn {
		if err := opts.Chaos.Validate(p); err != nil {
			return nil, err
		}
		if opts.Prefetch {
			return nil, fmt.Errorf("runtime: Prefetch cannot be combined with Chaos (a prefetched chunk is an untracked second lease)")
		}
		if opts.Virtual {
			return nil, fmt.Errorf("runtime: Virtual cannot be combined with Chaos (faults are timed on the wall clock)")
		}
	}
	rate := opts.WorkPerSecond
	if rate <= 0 {
		rate = 2e6
	}
	shards := opts.Shards
	if shards <= 0 {
		shards = p // home-stripe affinity: worker w owns stripe w
	}
	planVolume := 0.0
	maxRowSpan, maxColSpan := 0, 0
	for _, c := range plan.Chunks {
		planVolume += float64(c.Data())
		maxRowSpan = max(maxRowSpan, c.RowHi-c.RowLo)
		maxColSpan = max(maxColSpan, c.ColHi-c.ColLo)
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	r := &runner{
		opts:       opts,
		a:          a,
		b:          b,
		n:          n,
		rate:       rate,
		out:        matmul.New(n, n),
		live:       trace.NewLive(p),
		net:        newNetLink(topo, p, nil),
		perData:    make([]float64, p),
		perCells:   make([]float64, p),
		maxRowSpan: maxRowSpan,
		maxColSpan: maxColSpan,
		ctx:        runCtx,
		cancel:     cancel,
	}
	if opts.Virtual {
		r.vc = newVirtualClock(p)
	}
	if r.net != nil {
		r.net.now = r.now
	}
	// A clean run records exactly two spans per chunk (Comm + Compute);
	// reserving that up front keeps span recording allocation-free on the
	// hot path. Chaos retries and speculative copies can exceed the
	// reservation — those appends grow the slice the usual amortized way.
	r.live.Reserve(2*len(plan.Chunks)+4, 0)

	var body func(int)
	var cq *chaosQueue
	if chaosOn {
		r.ledgers = make([]chaosLedger, p)
		tab, err := opts.Chaos.Scenario.Compile(p)
		if err != nil {
			return nil, err
		}
		cq = newChaosQueue(plan.Chunks, p, shards, opts.Chaos.SpeculateAfter)
		if r.net != nil {
			r.net.slowdown = tab.LinkScale
		}
		body = func(w int) { r.chaosWorker(w, tab, cq) }
	} else {
		queue := newWorkQueue(plan.Chunks, p, shards)
		body = func(w int) { r.fastWorker(w, queue) }
	}
	for w := 0; w < p; w++ {
		r.wg.Add(1)
		go r.guard(w, body)
	}
	if r.vc != nil {
		r.vc.start()
	}
	r.wg.Wait()
	r.mergeLedgers()

	if err := r.runErr(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if chaosOn {
		// The recovery ledger must close exactly (integer-valued sums):
		// the committed chunks tile the domain cell-for-cell, the
		// committed volume equals the survivor-re-planned closed form,
		// and every shipped element is either committed or accounted
		// waste.
		sort.Slice(r.committedChunks, func(i, j int) bool { return r.committedChunks[i].Task < r.committedChunks[j].Task })
		if err := checkTiling(n, r.committedChunks); err != nil {
			return nil, fmt.Errorf("runtime: committed chunks violate exactly-once: %w", err)
		}
		replanned := planVolume + r.replanExtra
		if r.committedVolume != replanned {
			return nil, fmt.Errorf("runtime: committed volume %v ≠ survivor-re-planned closed form %v", r.committedVolume, replanned)
		}
	}

	tl := r.live.Timeline()
	rep := &Report{
		Strategy:          plan.Strategy,
		N:                 n,
		Grid:              plan.Grid,
		K:                 plan.K,
		Workers:           p,
		Chunks:            len(plan.Chunks),
		Predicted:         plan.Predicted,
		WorkCells:         float64(n * n),
		Makespan:          tl.Makespan,
		PerWorkerData:     r.perData,
		PerWorkerCells:    r.perCells,
		PerWorkerCommTime: tl.CommTimes(),
		LinkUtilization:   make([]float64, p),
		Chaos:             chaosOn,
		RetriedChunks:     r.retried,
		SpeculativeWins:   r.specWins,
		DegradedWorkers:   r.degraded,
		ReclaimedCells:    float64(r.reclaimedCells),
		PlanVolume:        planVolume,
		CommittedVolume:   r.committedVolume,
		ReplannedVolume:   planVolume + r.replanExtra,
		WastedData:        r.wastedData,
		WastedWorkCells:   r.wastedWork,
		LostWorkCells:     r.lostWork,
		Out:               r.out,
		Trace:             tl,
	}
	if st, ok := topo.(Star); ok {
		// Preserve the legacy aggregate-capacity semantics: only a star
		// has a single master port; the per-edge invariant covers the rest.
		rep.LinkCapacity = math.Max(st.Aggregate, 0)
	}
	if r.net != nil {
		rep.Topology = r.net.name
		rep.Edges = r.net.edgeReports(tl.Makespan)
		rep.RelayVolume = tl.RelayVolume()
		rep.SpanRoutes = r.net.spanRoutes()
	}
	for _, d := range r.perData {
		rep.DataVolume += d
	}
	if chaosOn && rep.DataVolume != rep.CommittedVolume+rep.WastedData {
		return nil, fmt.Errorf("runtime: shipping ledger leaks: measured %v ≠ committed %v + wasted %v",
			rep.DataVolume, rep.CommittedVolume, rep.WastedData)
	}
	overlap := 0.0
	for w, ct := range rep.PerWorkerCommTime {
		rep.CommTime += ct
		if tl.Makespan > 0 {
			rep.LinkUtilization[w] = ct / tl.Makespan
		}
	}
	for _, ov := range tl.OverlapTimes() {
		overlap += ov
	}
	if rep.CommTime > 0 {
		rep.OverlapFraction = overlap / rep.CommTime
	}
	if opts.VerifyEvery > 0 {
		for idx := 0; idx < n*n; idx += opts.VerifyEvery {
			i, j := idx/n, idx%n
			if want := a[i] * b[j]; r.out.Data[idx] != want {
				return nil, fmt.Errorf("runtime: output cell (%d,%d) = %v, want %v", i, j, r.out.Data[idx], want)
			}
		}
	}
	return rep, nil
}

// fetchReq asks the worker's fetcher goroutine to ship one chunk into
// buffer slot `slot`.
type fetchReq struct {
	c    Chunk
	slot int
}

// fastWorker is the fault-free worker loop (the original hot path — no
// leases, no locks beyond the queue stripes). The per-chunk loop is
// allocation-free: both transfer buffers are sized once from the plan's
// largest chunk, and prefetch runs on one persistent fetcher goroutine
// per worker instead of spawning a goroutine (and its result channel) per
// chunk. Cancellation is honored at chunk boundaries.
func (r *runner) fastWorker(w int, queue *workQueue) {
	opts := r.opts
	bucket := r.throttle(w)
	var bufs [2]struct{ a, b []float64 }
	for i := range bufs {
		bufs[i].a = make([]float64, 0, r.maxRowSpan)
		bufs[i].b = make([]float64, 0, r.maxColSpan)
	}

	// ship starts the transfer of the chunk's inputs into buffer slot
	// `slot`: the only elements this worker may read are the copies it
	// receives. Under the link model it books the transfer windows and
	// the Comm span is the booked delivery window; otherwise the span is
	// the measured memcpy. land finishes the transfer: it waits out the
	// delivery window and records the spans. Calls for one worker are
	// strictly sequential (double-buffering keeps at most one in flight),
	// so the per-worker ledgers need no locking. A cancellation that
	// lands mid-transfer abandons the booked window: no span is recorded
	// and the caller's next ctx check exits the loop.
	ship := func(c Chunk, slot int) transfer {
		bb := &bufs[slot]
		t := transfer{c: c}
		if r.net != nil && r.net.constrained(w) {
			var del bookedWindow
			del, t.relays = r.net.book(w, float64(c.Data()))
			t.t0, t.t1, t.booked = del.start, del.end, true
			bb.a = append(bb.a[:0], r.a[c.RowLo:c.RowHi]...)
			bb.b = append(bb.b[:0], r.b[c.ColLo:c.ColHi]...)
		} else {
			t.t0 = r.now()
			bb.a = append(bb.a[:0], r.a[c.RowLo:c.RowHi]...)
			bb.b = append(bb.b[:0], r.b[c.ColLo:c.ColHi]...)
			t.t1 = r.now()
		}
		t.aBuf, t.bBuf = bb.a, bb.b
		return t
	}
	land := func(t transfer) staged {
		s := staged{c: t.c, aBuf: t.aBuf, bBuf: t.bBuf}
		if t.booked {
			if !r.waitUntil(w, t.t1) {
				return s
			}
			for _, h := range t.relays {
				r.live.AddRelay(trace.Relay{Edge: h.edge, Dest: w, Start: h.start, End: h.end,
					Data: float64(t.c.Data()), Task: t.c.Task})
			}
		}
		r.live.Add(w, trace.Span{Kind: trace.Comm, Start: t.t0, End: t.t1,
			Data: float64(t.c.Data()), Task: t.c.Task})
		r.perData[w] += float64(t.c.Data())
		return s
	}

	// With prefetch on the wall clock, one persistent fetcher goroutine
	// per worker ships chunk inputs on request. The request/result
	// channels live for the whole run — the old per-chunk `go fetch(...)`
	// + fresh result channel was two heap allocations per chunk. At most
	// one request is ever in flight (the worker sends only after
	// receiving the previous result), so the single-buffered result
	// channel can never block the fetcher against a departed worker. On
	// the virtual clock the worker ships the next chunk itself and lands
	// it after the compute: the booking happens at the same instant, and
	// the worker stays the only goroutine that holds the clock.
	var reqCh chan fetchReq
	var resCh chan staged
	if opts.Prefetch && r.vc == nil {
		reqCh = make(chan fetchReq)
		resCh = make(chan staged, 1)
		defer close(reqCh) // stops the fetcher when the worker leaves
		go func() {
			defer func() {
				if rec := recover(); rec != nil {
					r.fail(fmt.Errorf("%w: worker %d prefetch panicked: %v", ErrWorkerFailed, w, rec))
					close(resCh)
				}
			}()
			for req := range reqCh {
				resCh <- land(ship(req.c, req.slot))
			}
		}()
	}

	c, ok := queue.pop(w)
	if !ok {
		return
	}
	if hook := opts.testHookChunkStart; hook != nil {
		hook(w, c)
	}
	cur := 0
	s := land(ship(c, cur))
	for {
		if r.ctx.Err() != nil {
			return
		}
		// Claim and start shipping the next chunk before computing the
		// current one, so the transfer hides under the compute span.
		var next Chunk
		var more bool
		var pending transfer
		if opts.Prefetch {
			if next, more = queue.pop(w); more {
				if r.vc != nil {
					pending = ship(next, 1-cur)
				} else {
					reqCh <- fetchReq{c: next, slot: 1 - cur}
				}
			}
		}

		// Compute: the token bucket stretches the span to the duration a
		// speed-sᵢ processor would need.
		cells := float64(s.c.Cells())
		t0 := r.now()
		bucket.acquire(cells)
		FillChunk(r.out, s.aBuf, s.bBuf, s.c)
		t1 := r.now()
		r.live.Add(w, trace.Span{Kind: trace.Compute, Start: t0, End: t1,
			Work: cells, Task: s.c.Task})
		r.perCells[w] += cells

		if opts.Prefetch {
			if !more {
				return
			}
			if r.vc != nil {
				s = land(pending)
			} else {
				var ok2 bool
				if s, ok2 = <-resCh; !ok2 {
					return // the fetcher died; the run is already failed
				}
			}
			cur = 1 - cur
		} else {
			if c, ok = queue.pop(w); !ok {
				return
			}
			if hook := opts.testHookChunkStart; hook != nil {
				hook(w, c)
			}
			s = land(ship(c, cur))
		}
	}
}

// FillChunk writes chunk c's rectangle of the outer product a̅×b̅ straight
// into out from the worker-local copies aBuf (the chunk's row interval)
// and bBuf (its column interval), through the one out-of-line
// matmul.OuterFill. Every chunk engine calls it: Run's fast path, Run's
// lease engine and the fleet's workers. A lease engine calls it only
// after winning the chunk's first-writer-wins commit, so no two
// goroutines ever write the same cells.
func FillChunk(out *matmul.Matrix, aBuf, bBuf []float64, c Chunk) {
	matmul.OuterFill(out.Data[c.RowLo*out.Cols+c.ColLo:], out.Cols, aBuf, bBuf)
}
