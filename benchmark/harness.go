package main

import (
	"math/rand"
	"sort"
	"sync"
	"time"
)

// blockSeconds is the length of the alternating untraced/traced blocks of
// a traced pass: ops that begin in an odd block record spans, ops in an
// even block do not, so both populations see the same drift of the host
// and their p50 ratio is the tracing overhead.
const blockSeconds = 0.1

// sample is one op of the measured phase. Times are seconds since the
// phase began. due is when the op was due to start: the schedule time of
// an open loop, the call time of a closed one.
type sample struct {
	due, end float64
	ok       bool
	traced   bool
}

func (s sample) latency() float64 { return s.end - s.due }

// observations are the per-op layer figures of the traced ops, keyed by
// metric name; each generator goroutine owns one and they are merged
// when the phase ends.
type observations map[string][]float64

func (o observations) add(name string, v float64) { o[name] = append(o[name], v) }

func (o observations) merge(other observations) {
	for k, v := range other {
		o[k] = append(o[k], v...)
	}
}

// p50 is the median observation, or 0 when the metric was never observed
// (the layer is not on this workload's path).
func (o observations) p50(name string) float64 {
	if len(o[name]) == 0 {
		return 0
	}
	return percentile(o[name], 0.5)
}

func (o observations) mean(name string) float64 {
	if len(o[name]) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range o[name] {
		sum += v
	}
	return sum / float64(len(o[name]))
}

// measurement is what one measured phase hands back.
type measurement struct {
	samples []sample
	// span is the length of the phase in seconds: start of the first op
	// to completion of the last.
	span float64
	// cpuSeconds is utime+stime the process under test spent in the phase.
	cpuSeconds float64
	// peakRSSMB is the peak resident set of the process under test.
	peakRSSMB float64
	// failures holds the first few failure messages.
	failures []string
	// lag is send time − due time per op of an open loop, in seconds.
	lag []float64
	// obs are the traced ops' layer observations; layer holds the
	// finished per-layer metrics by name.
	obs   observations
	layer map[string]float64
	// selfSumErr is the largest per-op |Σ layer times − latency| ÷ latency.
	selfSumErr float64
	// layerWall sums the traced ops' wall attribution by layer.
	layerWall map[string]float64
	// notes are lines for the human-readable report (sizes a figure was
	// taken at, validity remarks).
	notes []string
}

const maxFailureMessages = 5

func (m *measurement) fail(msg string) {
	if len(m.failures) < maxFailureMessages {
		m.failures = append(m.failures, msg)
	}
}

// opCtx is what one op of a workload sees.
type opCtx struct {
	rng *rand.Rand
	tr  *opTrace // nil on an untraced op
	obs observations
	// after, when an op sets it, runs once the op's clock has stopped:
	// a traced op files its layer figures there, off the latency.
	after func()
}

// phaseClock reads seconds since the phase began.
type phaseClock struct{ epoch time.Time }

func (c phaseClock) now() float64 { return time.Since(c.epoch).Seconds() }

// tracedAt reports whether an op that begins at t records spans.
func tracedAt(rec *recorder, t float64) bool {
	return rec != nil && int(t/blockSeconds)%2 == 1
}

// generator is one load-generating goroutine's private results.
type generator struct {
	samples  []sample
	obs      observations
	failures []string
	wall     map[string]float64
	sumErr   float64
}

// record files one finished op: s.ok must be set for an op that came
// back, err (non-nil) makes it a failed one.
func (g *generator) record(s sample, tr *opTrace, err error) {
	s.traced = tr != nil
	if err != nil {
		s.ok = false
		if len(g.failures) < maxFailureMessages {
			g.failures = append(g.failures, err.Error())
		}
	}
	if times := tr.finish(); times != nil {
		for k, v := range times {
			g.wall[k] += v
		}
		if s.ok {
			g.sumErr = max(g.sumErr, selfSumError(times, s.latency()))
		}
	}
	g.samples = append(g.samples, s)
}

func newGenerator() *generator {
	return &generator{obs: observations{}, wall: map[string]float64{}}
}

// collect folds the generators into one measurement, samples in
// completion order.
func collect(gens []*generator) *measurement {
	m := &measurement{obs: observations{}, layer: map[string]float64{}, layerWall: map[string]float64{}}
	for _, g := range gens {
		m.samples = append(m.samples, g.samples...)
		m.obs.merge(g.obs)
		for _, f := range g.failures {
			m.fail(f)
		}
		for k, v := range g.wall {
			m.layerWall[k] += v
		}
		m.selfSumErr = max(m.selfSumErr, g.sumErr)
	}
	sort.SliceStable(m.samples, func(i, j int) bool { return m.samples[i].end < m.samples[j].end })
	for _, s := range m.samples {
		m.span = max(m.span, s.end)
	}
	return m
}

// closedLoop drives `clients` callers for d: each sends its next op only
// after the previous one returned. An op is timed from the call to the
// verified result; op returns an error for a failed, wrong or
// oracle-violating result. seed separates the callers' input streams;
// cpuNow reads the cumulative CPU seconds of the process under test.
func closedLoop(d time.Duration, clients int, seed int64, rec *recorder, cpuNow func() float64, op func(c *opCtx) error) *measurement {
	cpu0 := cpuNow()
	clk := phaseClock{time.Now()}
	gens := make([]*generator, clients)
	var wg sync.WaitGroup
	for c := range gens {
		gens[c] = newGenerator()
		wg.Add(1)
		go func(c int, g *generator) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(c)*7919))
			for {
				t0 := clk.now()
				if t0 >= d.Seconds() {
					return
				}
				ctx := &opCtx{rng: rng, obs: g.obs, tr: rec.begin(clk, t0)}
				err := op(ctx)
				t1 := clk.now()
				ctx.tr.endOp(t1)
				if ctx.after != nil {
					ctx.after()
				}
				g.record(sample{due: t0, end: t1, ok: true}, ctx.tr, err)
			}
		}(c, gens[c])
	}
	wg.Wait()
	m := collect(gens)
	m.cpuSeconds = cpuNow() - cpu0
	return m
}

// sleepUntil blocks until the phase clock reads t. A runtime timer fires
// some tens of microseconds late; the lag is measured and reported
// (loadgen.lag_p99_ms), not hidden by spinning on a CPU the program
// under test may need.
func sleepUntil(clk phaseClock, t float64) {
	if d := t - clk.now(); d > 0 {
		time.Sleep(time.Duration(d * float64(time.Second)))
	}
}

// summary holds the end-to-end figures of a phase.
type summary struct {
	n             int
	p50, p90, p99 float64 // milliseconds
	opsPerSec     float64
	cpuMsPerOp    float64
}

// latenciesMs returns, in completion order, the latencies in milliseconds
// of the ok samples that match keep (nil keeps all).
func latenciesMs(samples []sample, keep func(sample) bool) []float64 {
	var ms []float64
	for _, s := range samples {
		if s.ok && (keep == nil || keep(s)) {
			ms = append(ms, 1e3*s.latency())
		}
	}
	return ms
}

// windowPercentile is the median over the windows of the per-window
// q-quantile of ms.
func windowPercentile(ms []float64, q float64) float64 {
	return windowMedian(len(ms), func(lo, hi int) float64 { return percentile(ms[lo:hi], q) })
}

// summarize computes the end-to-end figures of a phase's ok samples. The
// timing statistics all follow one rule, for open and closed loops alike:
// the ops, in completion order, are cut into five windows and the median
// of the per-window figure is reported. A window's rate is its ops over
// the time from the completion before its first op (the phase's beginning
// for the first window) to its last completion; an open loop's rate is
// then the offered rate it kept up with. CPU per op is not a timing of
// single ops: it is the phase's CPU seconds over its ok ops.
func summarize(m *measurement) summary {
	var ok []sample
	for _, s := range m.samples {
		if s.ok {
			ok = append(ok, s)
		}
	}
	if len(ok) == 0 {
		return summary{}
	}
	ms := latenciesMs(ok, nil)
	sum := summary{n: len(ok), p50: windowPercentile(ms, 0.5), p90: windowPercentile(ms, 0.9)}
	// p99 only means something with at least ten samples beyond it.
	if len(ms) >= 1000 {
		sum.p99 = percentile(ms, 0.99)
	}
	sum.opsPerSec = windowMedian(len(ok), func(lo, hi int) float64 {
		since := 0.0
		if lo > 0 {
			since = ok[lo-1].end
		}
		return float64(hi-lo) / (ok[hi-1].end - since)
	})
	sum.cpuMsPerOp = 1e3 * m.cpuSeconds / float64(len(ok))
	return sum
}
