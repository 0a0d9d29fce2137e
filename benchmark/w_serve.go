package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"time"
)

const (
	serveRate = 250 // offered jobs/s
	// servePollGap is the floor between two polls of one job: the first
	// poll follows the 202 at once, later ones at least this far apart.
	servePollGap = 250e-6
	// serveWarmJobs warm the server's heap, its handler goroutines and
	// both connections before the clock starts.
	serveWarmJobs = 100
)

var (
	serveSizes      = []int{32, 48, 64}
	serveStrategies = []string{"hom", "hom/k", "het"}
	bannerAddr      = regexp.MustCompile(`on http://(\S+)`)
)

// serveInstance is one `nlfl serve` subprocess and the two keep-alive
// connections that load it: one posts jobs, one polls them.
type serveInstance struct {
	cmd  *exec.Cmd
	base string
	post *http.Client
	poll *http.Client
	seed int64
	// sent, accepted and finished count the client's view for the /accounts
	// reconciliation, warm-up included.
	sent, accepted, finished int
}

// oneConnClient is an HTTP client pinned to a single keep-alive
// connection.
func oneConnClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, IdleConnTimeout: time.Minute},
		Timeout:   30 * time.Second,
	}
}

func setupServe(rc *runConfig) (instance, error) {
	cmd := exec.Command(rc.nlflBin, "serve", "-addr", "127.0.0.1:0", "-rate", "1e12",
		"-speeds", "1,2,3,4", "-policy", "srpt", "-queue", "256", "-quota", "128")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	si := &serveInstance{cmd: cmd, post: oneConnClient(), poll: oneConnClient(), seed: rc.seed}
	// The banner's first line carries the port the kernel picked.
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		si.close()
		return nil, fmt.Errorf("nlfl serve banner: %w", err)
	}
	match := bannerAddr.FindStringSubmatch(line)
	if match == nil {
		si.close()
		return nil, fmt.Errorf("nlfl serve banner has no address: %q", line)
	}
	si.base = "http://" + match[1]
	// Whatever the server prints next (usage lines, the drain notice) is
	// discarded so it can never block on a full pipe.
	go io.Copy(io.Discard, stdout)

	r := rand.New(rand.NewSource(rc.seed))
	for i := 0; i < serveWarmJobs; i++ {
		if err := si.warmJob(r, i); err != nil {
			si.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return si, nil
}

// submitBody mirrors the POST /jobs request of cmd/nlfl/serve.go.
type submitBody struct {
	Tenant   string `json:"tenant"`
	N        int    `json:"n"`
	Strategy string `json:"strategy"`
	Seed     int64  `json:"seed"`
}

// statusBody is the part of GET /jobs?id= the harness checks.
type statusBody struct {
	ID              int64   `json:"id"`
	State           string  `json:"state"`
	N               int     `json:"n"`
	Latency         float64 `json:"latency"`
	PlanVolume      float64 `json:"planVolume"`
	CommittedVolume float64 `json:"committedVolume"`
	WastedData      float64 `json:"wastedData"`
	Err             string  `json:"err"`
}

func (si *serveInstance) jobBody(r *rand.Rand, i int) submitBody {
	return submitBody{
		Tenant:   fleetTenants[i%len(fleetTenants)],
		N:        serveSizes[r.Intn(len(serveSizes))],
		Strategy: serveStrategies[i%len(serveStrategies)],
		Seed:     si.seed + int64(i),
	}
}

// postJob sends one POST /jobs and returns the job id.
func (si *serveInstance) postJob(body submitBody) (int64, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	si.sent++
	resp, err := si.post.Post(si.base+"/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return 0, fmt.Errorf("POST /jobs: %s: %s", resp.Status, bytes.TrimSpace(payload))
	}
	var out struct {
		ID int64 `json:"id"`
	}
	if err := json.Unmarshal(payload, &out); err != nil {
		return 0, fmt.Errorf("POST /jobs: %w", err)
	}
	si.accepted++
	return out.ID, nil
}

// pollJob sends one GET /jobs?id=.
func (si *serveInstance) pollJob(id int64) (statusBody, error) {
	var st statusBody
	resp, err := si.poll.Get(si.base + "/jobs?id=" + strconv.FormatInt(id, 10))
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return st, fmt.Errorf("GET /jobs?id=%d: %s", id, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("GET /jobs?id=%d: %w", id, err)
	}
	io.Copy(io.Discard, resp.Body)
	return st, nil
}

// checkStatus checks a terminal job status from outside: done, the size
// that was asked for, the clean ledger closed exactly.
func checkStatus(st statusBody, want submitBody) error {
	switch {
	case st.State != "done":
		return fmt.Errorf("job %d ended %q: %s", st.ID, st.State, st.Err)
	case st.N != want.N:
		return fmt.Errorf("job %d ran n=%d, asked n=%d", st.ID, st.N, want.N)
	case st.CommittedVolume != st.PlanVolume || st.PlanVolume <= 0:
		return fmt.Errorf("job %d: committed volume %v ≠ planned %v", st.ID, st.CommittedVolume, st.PlanVolume)
	case st.WastedData != 0:
		return fmt.Errorf("job %d: clean job wasted %v", st.ID, st.WastedData)
	}
	return nil
}

func (si *serveInstance) warmJob(r *rand.Rand, i int) error {
	body := si.jobBody(r, i)
	id, err := si.postJob(body)
	if err != nil {
		return err
	}
	for {
		st, err := si.pollJob(id)
		if err != nil {
			return err
		}
		if st.State != "running" {
			si.finished++
			return checkStatus(st, body)
		}
		time.Sleep(time.Duration(servePollGap * float64(time.Second)))
	}
}

// httpJob is an op between its POST and the poll that sees it finished.
type httpJob struct {
	id       int64
	body     submitBody
	due      float64
	nextPoll float64
	polls    int
	tr       *opTrace
}

// measure offers serveRate·d jobs as a Poisson stream — a fixed count,
// because the server keeps every job's handle and its resident set grows
// with each one, so a fixed-duration run would not be stationary — and
// follows each job to its terminal status.
func (si *serveInstance) measure(d time.Duration, seed int64, rec *recorder) (*measurement, error) {
	jobs := int(serveRate * d.Seconds())
	r := rand.New(rand.NewSource(seed))
	dues := poissonSchedule(r, jobs, d.Seconds())

	pid := si.cmd.Process.Pid
	cpu0, err := pidCPUSeconds(pid)
	if err != nil {
		return nil, err
	}
	rss0, _ := statusKB(strconv.Itoa(pid), "VmRSS")

	clk := phaseClock{time.Now()}
	sender, poller := newGenerator(), newGenerator()
	// Sized to the number of sends: the sender never waits for the poller.
	ids := make(chan *httpJob, len(dues))
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		si.pollLoop(clk, ids, poller)
	}()

	var lag []float64
	for i, due := range dues {
		sleepUntil(clk, due)
		lag = append(lag, clk.now()-due)
		j := &httpJob{body: si.jobBody(r, serveWarmJobs+i), due: due, tr: rec.begin(clk, due)}
		sp := j.tr.start("POST /jobs", "cmd-nlfl", rootSpan)
		t0 := clk.now()
		id, err := si.postJob(j.body)
		t1 := clk.now()
		j.tr.end(sp)
		if j.tr != nil {
			sender.obs.add("cmd-nlfl.submit_rtt_p50_ms", 1e3*(t1-t0))
		}
		if err != nil {
			j.tr.endOp(t1)
			sender.record(sample{due: due, end: t1}, j.tr, err)
			continue
		}
		j.id, j.nextPoll = id, t1
		ids <- j
	}
	close(ids)
	<-finished

	m := collect([]*generator{sender, poller})
	m.lag = lag
	si.finished += len(poller.samples)
	cpu1, err := pidCPUSeconds(pid)
	if err != nil {
		return nil, err
	}
	m.cpuSeconds = cpu1 - cpu0
	m.peakRSSMB = peakRSSMB(strconv.Itoa(pid))
	if rec != nil {
		rss1, _ := statusKB(strconv.Itoa(pid), "VmRSS")
		m.layer["cmd-nlfl.rss_kb_per_job"] = (rss1 - rss0) / float64(jobs)
		for _, name := range []string{"cmd-nlfl.submit_rtt_p50_ms", "cmd-nlfl.poll_rtt_p50_ms", "cmd-nlfl.frontdoor_overhead_p50_ms"} {
			m.layer[name] = m.obs.p50(name)
		}
		m.layer["cmd-nlfl.polls_per_job"] = m.obs.mean("cmd-nlfl.polls_per_job")
	}
	mismatch, rejected, err := si.reconcile()
	if err != nil {
		return nil, err
	}
	m.layer["cmd-nlfl.accounts_mismatch"] = mismatch
	m.layer["service.rejected_frac"] = rejected
	if mismatch != 0 {
		m.fail(fmt.Sprintf("/accounts disagrees with the client's counts in %v places", mismatch))
	}
	return m, nil
}

// pollLoop follows the jobs the sender hands over until each is
// terminal, on one connection: round-robin over the jobs whose poll gap
// has passed, asleep when none has.
func (si *serveInstance) pollLoop(clk phaseClock, ids <-chan *httpJob, g *generator) {
	var open []*httpJob
	closed := false
	take := func(j *httpJob, ok bool) {
		if ok {
			open = append(open, j)
		} else {
			closed, ids = true, nil // a nil channel is never ready again
		}
	}
	for {
		if len(open) == 0 {
			if closed {
				return
			}
			j, ok := <-ids
			take(j, ok)
			continue
		}
		now := clk.now()
		soonest := open[0].nextPoll
		polled := false
		kept := open[:0]
		for _, j := range open {
			if j.nextPoll > now {
				soonest = min(soonest, j.nextPoll)
				kept = append(kept, j)
				continue
			}
			polled = true
			if !si.pollOnce(clk, j, g) {
				kept = append(kept, j)
			}
			now = clk.now()
		}
		open = kept
		// A new job is polled at once; otherwise wake when the first poll
		// gap has passed.
		wait := time.Duration(0)
		if !polled {
			wait = time.Duration((soonest - now) * float64(time.Second))
		}
		timer := time.NewTimer(max(wait, 0))
		select {
		case j, ok := <-ids:
			take(j, ok)
		case <-timer.C:
		}
		timer.Stop()
	}
}

// pollOnce polls one job and reports whether it is finished with it.
func (si *serveInstance) pollOnce(clk phaseClock, j *httpJob, g *generator) bool {
	sp := j.tr.start("GET /jobs?id=", "cmd-nlfl", rootSpan)
	t0 := clk.now()
	st, err := si.pollJob(j.id)
	t1 := clk.now()
	j.tr.end(sp)
	j.polls++
	if j.tr != nil {
		g.obs.add("cmd-nlfl.poll_rtt_p50_ms", 1e3*(t1-t0))
	}
	if err == nil && st.State == "running" {
		j.nextPoll = t1 + servePollGap
		return false
	}
	if err == nil {
		err = checkStatus(st, j.body)
	}
	j.tr.endOp(t1)
	if j.tr != nil {
		g.obs.add("cmd-nlfl.polls_per_job", float64(j.polls))
		if err == nil {
			g.obs.add("cmd-nlfl.frontdoor_overhead_p50_ms", 1e3*((t1-j.due)-st.Latency))
			// The server's own latency figure, drawn as late as it can
			// have been: ending where the poll that saw it done began.
			// It ran beside the client's own spans, so it is a parallel
			// child: only instants no request covers are charged to it.
			j.tr.add(span{Name: "job (server-reported latency, latest placement)", Layer: "service", Parent: rootSpan,
				Start: max(j.due, t0-st.Latency), End: t0, Derived: true, Worker: 1})
		}
	}
	g.record(sample{due: j.due, end: t1, ok: true}, j.tr, err)
	return true
}

// reconcile compares /accounts with what the client saw: every request
// was counted, admitted + rejected = submitted, completed + failed =
// admitted. It returns the number of identities that do not hold and the
// server's rejected fraction.
func (si *serveInstance) reconcile() (mismatch, rejectedFrac float64, err error) {
	resp, err := si.poll.Get(si.base + "/accounts")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var acct struct {
		Submitted, Rejected, Completed, Failed, Cancelled, ActiveJobs int
		Tenants                                                       []struct{ Submitted, Admitted, Rejected, Completed, Failed int }
	}
	if err := json.NewDecoder(resp.Body).Decode(&acct); err != nil {
		return 0, 0, fmt.Errorf("GET /accounts: %w", err)
	}
	admitted, tenantSubmitted := 0, 0
	for _, t := range acct.Tenants {
		admitted += t.Admitted
		tenantSubmitted += t.Submitted
	}
	for _, ok := range []bool{
		acct.Submitted == si.sent,
		tenantSubmitted == acct.Submitted,
		admitted+acct.Rejected == acct.Submitted,
		admitted == si.accepted,
		acct.Completed+acct.Failed+acct.Cancelled+acct.ActiveJobs == admitted,
		acct.Completed == si.finished,
	} {
		if !ok {
			mismatch++
		}
	}
	if acct.Submitted > 0 {
		rejectedFrac = float64(acct.Rejected) / float64(acct.Submitted)
	}
	return mismatch, rejectedFrac, nil
}

func (si *serveInstance) probes(*measurement) error { return nil }

// close interrupts the server, which drains and exits; a server that
// does not exit in five seconds is killed.
func (si *serveInstance) close() error {
	si.post.CloseIdleConnections()
	si.poll.CloseIdleConnections()
	_ = si.cmd.Process.Signal(os.Interrupt)
	exited := make(chan error, 1)
	go func() { exited <- si.cmd.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			return fmt.Errorf("nlfl serve: %w", err)
		}
		return nil
	case <-time.After(5 * time.Second):
		_ = si.cmd.Process.Kill()
		<-exited
		return fmt.Errorf("nlfl serve did not exit on interrupt; killed")
	}
}
