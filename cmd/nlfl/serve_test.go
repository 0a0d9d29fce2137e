package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nlfl/internal/service"
)

// TestServeMux drives the HTTP façade end to end against a real fleet:
// submit, poll to completion, read the accounts and the health page, and
// watch admission shed when the queue is full.
func TestServeMux(t *testing.T) {
	fleet, err := service.New(service.Config{
		Speeds:        []float64{1, 2},
		WorkPerSecond: 5e5,
		MaxQueue:      2,
		TenantQuota:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	st := newServeState(fleet, retainFinished)
	ts := httptest.NewServer(newServeMux(st))
	defer ts.Close()

	post := func(body string) (*http.Response, map[string]int64) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out map[string]int64
		if resp.StatusCode == http.StatusAccepted {
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
		}
		resp.Body.Close()
		return resp, out
	}

	resp, ids := post(`{"tenant":"a","n":32,"strategy":"het","seed":1}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: got %d, want 202", resp.StatusCode)
	}
	id := ids["id"]

	var status jobStatus
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/jobs?id=" + jsonNum(id))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if status.State != "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not finish in 10s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if status.State != "done" || status.Err != "" {
		t.Fatalf("job state %q err %q, want done", status.State, status.Err)
	}
	if status.CommittedVolume != status.PlanVolume || status.PlanVolume <= 0 {
		t.Fatalf("fault-free ledger not exact: committed %v plan %v",
			status.CommittedVolume, status.PlanVolume)
	}

	// A bad spec is a 400, not an admission rejection.
	if resp, _ := post(`{"tenant":"a","n":-5}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: got %d, want 400", resp.StatusCode)
	}
	// Unknown ids are 404.
	if resp, err := http.Get(ts.URL + "/jobs?id=99999"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id: got %v %v, want 404", resp.StatusCode, err)
	}

	var acc service.FleetReport
	resp2, err := http.Get(ts.URL + "/accounts")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp2.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if acc.Completed < 1 || len(acc.Tenants) == 0 {
		t.Fatalf("accounts: completed %d tenants %d", acc.Completed, len(acc.Tenants))
	}

	resp3, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Workers int                   `json:"workers"`
		Health  []service.WorkerState `json:"health"`
		Jobs    map[string]int64      `json:"jobs"`
	}
	if err := json.NewDecoder(resp3.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if hz.Workers != 2 || len(hz.Health) != 2 {
		t.Fatalf("healthz: workers %d health %d, want 2", hz.Workers, len(hz.Health))
	}
	if _, ok := hz.Jobs["evicted"]; !ok || hz.Jobs["active"]+hz.Jobs["retained"] != 1 {
		t.Fatalf("healthz jobs block %v, want the one job active or retained and an evicted count", hz.Jobs)
	}
}

// TestServeAdmissionSheds fills the bounded queue with slow jobs and
// checks the façade answers 429, the backpressure contract.
func TestServeAdmissionSheds(t *testing.T) {
	fleet, err := service.New(service.Config{
		Speeds:        []float64{1},
		WorkPerSecond: 2e3, // slow on purpose: jobs stay in-flight
		MaxQueue:      2,
		TenantQuota:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	st := newServeState(fleet, retainFinished)
	ts := httptest.NewServer(newServeMux(st))
	defer ts.Close()

	codes := make([]int, 0, 3)
	var last rejectBody
	var lastRetryAfter string
	for i := 0; i < 3; i++ {
		resp, err := http.Post(ts.URL+"/jobs", "application/json",
			strings.NewReader(`{"tenant":"flood","n":48}`))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			if err := json.NewDecoder(resp.Body).Decode(&last); err != nil {
				t.Fatalf("429 body is not JSON: %v", err)
			}
			lastRetryAfter = resp.Header.Get("Retry-After")
		}
		resp.Body.Close()
		codes = append(codes, resp.StatusCode)
	}
	if codes[0] != http.StatusAccepted || codes[1] != http.StatusAccepted {
		t.Fatalf("first two submits: got %v, want 202s", codes)
	}
	if codes[2] != http.StatusTooManyRequests {
		t.Fatalf("third submit: got %d, want 429", codes[2])
	}
	// The regression this pins: a 429 must say *why* — quota pressure and
	// fleet overload call for different client reactions.
	if last.Reason != string(service.RejectQueueFull) {
		t.Fatalf("429 reason %q, want %q (body %+v)", last.Reason, service.RejectQueueFull, last)
	}
	if last.Detail == "" || last.Error == "" {
		t.Fatalf("429 body missing detail or error: %+v", last)
	}
	// Backpressure regression: every 429 carries a Retry-After hint
	// derived from queue depth (depth 2 → 1 + 2/4 = 1 second).
	if lastRetryAfter != "1" {
		t.Fatalf("429 Retry-After = %q, want %q for queue depth 2", lastRetryAfter, "1")
	}
}

// TestRetryAfterScalesWithQueueDepth pins the header's scaling: one
// extra second per four queued jobs, capped at 30.
func TestRetryAfterScalesWithQueueDepth(t *testing.T) {
	cases := []struct {
		depth int
		want  string
	}{
		{0, "1"}, {2, "1"}, {4, "2"}, {16, "5"}, {1000, "30"},
	}
	for _, c := range cases {
		if got := retryAfter(c.depth); got != c.want {
			t.Errorf("retryAfter(%d) = %q, want %q", c.depth, got, c.want)
		}
	}
}

// rejectBody is the JSON shape of a 429 from POST /jobs.
type rejectBody struct {
	Error  string `json:"error"`
	Reason string `json:"reason"`
	Detail string `json:"detail"`
}

// TestServeRejectReasons drives the façade over a fleet with a
// per-tenant quota and an autoscaler: the three 429 flavors a client
// can hit (tenant-quota, queue-full, amdahl-cap) each carry their own
// machine-readable reason.
func TestServeRejectReasons(t *testing.T) {
	fleet, err := service.New(service.Config{
		Speeds:         []float64{1, 2, 3, 4},
		WorkPerSecond:  3e4,
		MaxQueue:       8,
		TenantQuota:    1,
		AutoscaleTheta: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	st := newServeState(fleet, retainFinished)
	ts := httptest.NewServer(newServeMux(st))
	defer ts.Close()

	reject := func(body string) rejectBody {
		t.Helper()
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("got %d, want 429", resp.StatusCode)
		}
		var rb rejectBody
		if err := json.NewDecoder(resp.Body).Decode(&rb); err != nil {
			t.Fatal(err)
		}
		return rb
	}

	// An impossible deadline is shed by the capacity model at the door.
	if rb := reject(`{"tenant":"rush","n":96,"deadlineMs":1}`); rb.Reason != string(service.RejectAmdahlCap) {
		t.Errorf("amdahl-cap rejection carried reason %q (body %+v)", rb.Reason, rb)
	}
	// Fill tenant "flood"'s quota of one, then hit the quota reason.
	resp, err := http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"tenant":"flood","n":96}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first flood submit: got %d, want 202", resp.StatusCode)
	}
	if rb := reject(`{"tenant":"flood","n":96}`); rb.Reason != string(service.RejectTenantQuota) {
		t.Errorf("quota rejection carried reason %q (body %+v)", rb.Reason, rb)
	}
}

func jsonNum(id int64) string {
	b, _ := json.Marshal(id)
	return string(b)
}

// TestJobStatusGolden pins the GET /jobs?id= body for the three states a
// JobReport can be in. statusOf is the only builder of that body — for
// the poll of a live handle and for the finished ring alike — so these
// bytes are what every client sees.
func TestJobStatusGolden(t *testing.T) {
	done := &service.JobReport{
		ID: 7, Tenant: "a", N: 64, Strategy: "het", Workers: []int{0, 2, 3},
		Latency: 0.25, Makespan: 0.125,
		PlanVolume: 448, CommittedVolume: 448, DataShipped: 448,
	}
	failed := &service.JobReport{
		ID: 8, Tenant: "chaos", N: 48, Workers: []int{1},
		Latency: 1.5, Makespan: 1,
		PlanVolume: 96, ReplannedVolume: 32, CommittedVolume: 64, WastedData: 16,
		ReclaimedCells: 576,
		Failed:         true, Err: "service: job failed: worker 1 crashed",
	}
	for _, c := range []struct {
		name string
		rep  *service.JobReport
		want string
	}{
		{"running", nil, `{"id":9,"state":"running"}`},
		{"done", done, `{"id":9,"state":"done","tenant":"a","n":64,"workers":[0,2,3],` +
			`"latency":0.25,"makespan":0.125,"planVolume":448,"committedVolume":448}`},
		{"failed", failed, `{"id":9,"state":"failed","tenant":"chaos","n":48,"workers":[1],` +
			`"latency":1.5,"makespan":1,"planVolume":96,"replannedVolume":32,"committedVolume":64,` +
			`"wastedData":16,"reclaimedCells":576,"err":"service: job failed: worker 1 crashed"}`},
	} {
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, statusOf(9, c.rep))
		if got := rec.Body.String(); got != c.want+"\n" {
			t.Errorf("%s body:\n got %s want %s", c.name, got, c.want)
		}
	}
}

// serveFixture is a fast two-worker fleet behind the mux, driven without
// a socket so a test can push thousands of requests through it.
type serveFixture struct {
	t   *testing.T
	st  *serveState
	mux *http.ServeMux
}

func newServeFixture(t *testing.T, cfg service.Config, retain int) *serveFixture {
	t.Helper()
	fleet, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	st := newServeState(fleet, retain)
	return &serveFixture{t: t, st: st, mux: newServeMux(st)}
}

func (f *serveFixture) do(method, target, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	f.mux.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
	return rec
}

// submit posts one job and returns its id.
func (f *serveFixture) submit(body string) int64 {
	f.t.Helper()
	rec := f.do(http.MethodPost, "/jobs", body)
	if rec.Code != http.StatusAccepted {
		f.t.Fatalf("submit %s: got %d %s, want 202", body, rec.Code, rec.Body)
	}
	var out map[string]int64
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		f.t.Fatal(err)
	}
	return out["id"]
}

func (f *serveFixture) get(id int64) *httptest.ResponseRecorder {
	return f.do(http.MethodGet, fmt.Sprintf("/jobs?id=%d", id), "")
}

// finish polls a job until it is terminal and returns the final body.
func (f *serveFixture) finish(id int64) string {
	f.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		rec := f.get(id)
		if rec.Code != http.StatusOK {
			f.t.Fatalf("poll %d: got %d %s, want 200", id, rec.Code, rec.Body)
		}
		if !strings.Contains(rec.Body.String(), `"state":"running"`) {
			return rec.Body.String()
		}
		if time.Now().After(deadline) {
			f.t.Fatalf("job %d did not finish in 10s", id)
		}
		runtime.Gosched()
	}
}

var fastFleet = service.Config{
	Speeds:        []float64{1, 2},
	WorkPerSecond: 1e12,
	MaxQueue:      64,
	TenantQuota:   64,
}

// TestServeJobTableBounded is the retention contract: a long stream of
// jobs leaves only the ring behind. The heap after 2000 jobs equals the
// heap after 500 (each job's matrix, timeline and engine state are
// garbage once it is terminal), an evicted id answers 410, a retained
// one answers from the ring with the bytes its live handle gave, and an
// id that was never issued stays 404.
func TestServeJobTableBounded(t *testing.T) {
	const (
		total  = 2000
		retain = 64
	)
	f := newServeFixture(t, fastFleet, retain)
	heapAfterGC := func() uint64 {
		f.st.waiters.Wait() // no submit is in flight: every waiter has retired its job
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var heap500 uint64
	var oldestRetained string
	for i := 1; i <= total; i++ {
		id := f.submit(fmt.Sprintf(`{"tenant":"a","n":32,"strategy":"het","seed":%d}`, i))
		if id != int64(i) {
			t.Fatalf("job %d got id %d: the test relies on ids counting from 1", i, id)
		}
		body := f.finish(id)
		switch i {
		case 500:
			heap500 = heapAfterGC()
		case total - retain + 1:
			oldestRetained = body
		}
	}
	heap2000 := heapAfterGC()
	if grew := int64(heap2000) - int64(heap500); grew > 1<<20 {
		t.Errorf("heap grew %d bytes between job 500 and job %d, want ≤ 1 MiB", grew, total)
	}
	if a, r := len(f.st.active), len(f.st.finished); a != 0 || r != retain {
		t.Errorf("table holds %d active, %d finished; want 0 and %d", a, r, retain)
	}
	if f.st.evicted != total-retain {
		t.Errorf("evicted = %d, want %d", f.st.evicted, total-retain)
	}

	for _, c := range []struct {
		id   int64
		want int
	}{
		{1, http.StatusGone},
		{total - retain, http.StatusGone},
		{total - retain + 1, http.StatusOK},
		{total, http.StatusOK},
		{total + 1, http.StatusNotFound},
		{0, http.StatusNotFound},
		{-3, http.StatusNotFound},
	} {
		if rec := f.get(c.id); rec.Code != c.want {
			t.Errorf("GET /jobs?id=%d: got %d, want %d", c.id, rec.Code, c.want)
		}
	}
	if got := f.get(total - retain + 1).Body.String(); got != oldestRetained {
		t.Errorf("retained record changed after %d later jobs:\n got %s want %s", retain-1, got, oldestRetained)
	}

	var hz struct {
		Jobs map[string]int64 `json:"jobs"`
	}
	if err := json.Unmarshal(f.do(http.MethodGet, "/healthz", "").Body.Bytes(), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Jobs["active"] != 0 || hz.Jobs["retained"] != retain || hz.Jobs["evicted"] != total-retain {
		t.Errorf("/healthz jobs = %v, want active 0, retained %d, evicted %d", hz.Jobs, retain, total-retain)
	}
}

// TestServePollRacesRetire hammers the newest ids from 16 pollers while
// jobs finish and move from the active tier to the ring: the move is one
// critical section, so no poll may fall between the tiers and see 404 or
// 410. Meaningful under -race.
func TestServePollRacesRetire(t *testing.T) {
	const jobs = 300
	f := newServeFixture(t, fastFleet, jobs)
	var issued atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < 16; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				hi := issued.Load()
				for id := max(1, hi-3); id <= hi; id++ {
					if rec := f.get(id); rec.Code != http.StatusOK {
						t.Errorf("poll of issued job %d: got %d, want 200", id, rec.Code)
						return
					}
				}
				runtime.Gosched()
			}
		}()
	}
	for i := 0; i < jobs; i++ {
		id := f.submit(`{"tenant":"a","n":32}`)
		issued.Store(id)
		f.finish(id)
	}
	close(stop)
	wg.Wait()
}

// TestServeShutdownJoinsWaiters runs the SIGINT path over jobs too slow
// to drain: Close fails them, which closes their Done channels, so every
// waiter retires its job and returns.
func TestServeShutdownJoinsWaiters(t *testing.T) {
	f := newServeFixture(t, service.Config{
		Speeds:        []float64{1},
		WorkPerSecond: 2e3, // n=48 takes over a second: still running at shutdown
		MaxQueue:      4,
		TenantQuota:   4,
	}, retainFinished)
	ts := httptest.NewServer(f.mux)
	defer ts.Close()
	ids := []int64{f.submit(`{"tenant":"a","n":48}`), f.submit(`{"tenant":"a","n":48}`)}

	joined := make(chan struct{})
	go func() {
		f.st.shutdown(ts.Config, 10*time.Millisecond)
		close(joined)
	}()
	select {
	case <-joined:
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown did not return: a waiter is still blocked")
	}
	if n := len(f.st.active); n != 0 {
		t.Errorf("%d jobs still in the active tier after shutdown", n)
	}
	for _, id := range ids {
		if body := f.get(id).Body.String(); !strings.Contains(body, `"state":"failed"`) {
			t.Errorf("job %d after shutdown: %s, want a failed record", id, body)
		}
	}
}

// TestServeRequestLimits pins the front door's own checks: a malformed
// id is a 400 (it used to be read up to the first non-digit), and one
// request can neither stream an unbounded body nor make the fleet
// allocate an output matrix of arbitrary size.
func TestServeRequestLimits(t *testing.T) {
	f := newServeFixture(t, fastFleet, retainFinished)
	id := f.submit(`{"tenant":"a","n":32}`)
	f.finish(id)
	for _, q := range []string{"1abc", "", "1.0", " 1", "0x1", "99999999999999999999"} {
		if rec := f.do(http.MethodGet, "/jobs?id="+strings.ReplaceAll(q, " ", "%20"), ""); rec.Code != http.StatusBadRequest {
			t.Errorf("GET /jobs?id=%q: got %d, want 400", q, rec.Code)
		}
	}

	rec := f.do(http.MethodPost, "/jobs", fmt.Sprintf(`{"tenant":"a","n":%d}`, maxServeN+1))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "limit") {
		t.Errorf("n over the limit: got %d %s, want 400 naming the limit", rec.Code, rec.Body)
	}
	if rec := f.do(http.MethodPost, "/jobs", `{"tenant":"a","n":200000}`); rec.Code != http.StatusBadRequest {
		t.Errorf("n = 200000: got %d, want 400", rec.Code)
	}
	big := `{"tenant":"` + strings.Repeat("x", maxSubmitBytes) + `","n":32}`
	if rec := f.do(http.MethodPost, "/jobs", big); rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("%d-byte body: got %d, want 413", len(big), rec.Code)
	}
	if acc := f.st.fleet.Accounting(); acc.Submitted != 1 {
		t.Errorf("refused requests reached the fleet: %d submitted, want 1", acc.Submitted)
	}
}

// coldStartHelperEnv marks the re-executed test binary of
// TestServeColdStartAllocation as the helper process.
const coldStartHelperEnv = "NLFL_TEST_COLD_START_HELPER"

// TestServeColdStartAllocation keeps once-per-process work out of the job
// path. A fresh process — the re-executed test binary, so nothing has
// warmed anything — serves one n = 64 job to done on an unthrottled
// four-worker fleet, then a second, and reports what each allocated
// (runtime.MemStats.TotalAlloc, which a collection cannot lower). The
// first job may cost at most 1 MiB more than the second: the regression
// this pins is the kernel's tile-autotune probe, whose 8 MiB matrix made
// the first job of every process twice the resident set of the server.
func TestServeColdStartAllocation(t *testing.T) {
	if os.Getenv(coldStartHelperEnv) == "1" {
		cfg := fastFleet
		cfg.Speeds = []float64{1, 2, 3, 4}
		f := newServeFixture(t, cfg, retainFinished)
		totalAlloc := func() uint64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return ms.TotalAlloc
		}
		var jobs [2]uint64
		for i := range jobs {
			before := totalAlloc()
			id := f.submit(fmt.Sprintf(`{"tenant":"a","n":64,"strategy":"het","seed":%d}`, i+1))
			// Wait for the job's retirement, not in a polling loop: every
			// poll allocates, and how many it takes is the host's business.
			f.st.waiters.Wait()
			if body := f.get(id).Body.String(); !strings.Contains(body, `"state":"done"`) {
				t.Fatalf("job %d: %s", i+1, body)
			}
			jobs[i] = totalAlloc() - before
		}
		fmt.Printf("cold-start-alloc %d %d\n", jobs[0], jobs[1])
		return
	}
	if testing.Short() {
		t.Skip("re-executes the test binary")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestServeColdStartAllocation$")
	cmd.Env = append(os.Environ(), coldStartHelperEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("helper process: %v\n%s", err, out)
	}
	var first, second int64
	line := string(out)
	if i := strings.Index(line, "cold-start-alloc "); i >= 0 {
		line = line[i:]
	}
	if _, err := fmt.Sscanf(line, "cold-start-alloc %d %d", &first, &second); err != nil {
		t.Fatalf("helper printed no allocation line: %v\n%s", err, out)
	}
	t.Logf("first job allocated %d bytes, second %d", first, second)
	if first-second > 1<<20 {
		t.Errorf("the first job of a process allocated %d bytes more than the second, want ≤ 1 MiB: once-per-process work is on the job path",
			first-second)
	}
}
