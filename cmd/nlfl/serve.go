package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"time"

	nrt "nlfl/internal/runtime"
	"nlfl/internal/service"
)

const (
	// retainFinished is how many finished jobs stay pollable: 1<<14 flat
	// status records (≈65 s of history at 250 jobs/s, under 5 MB). A
	// constant, not a flag — it bounds the server's memory, not a job.
	retainFinished = 1 << 14
	// maxServeN caps the job size the front door admits: the N×N float64
	// output of n = 4096 is 128 MiB, allocated under the fleet mutex. The
	// in-process Fleet API accepts any N.
	maxServeN = 4096
	// maxSubmitBytes bounds a POST /jobs body.
	maxSubmitBytes = 64 << 10
)

// serveState is the HTTP façade over one long-lived Fleet. It keeps a
// two-tier job table so memory stays bounded on an unbounded stream of
// jobs: the handles of unfinished jobs (admission bounds them by -queue),
// and the flat status records of the most recent finished ones in a FIFO
// ring. A job moves from the first tier to the second exactly once, when
// its Done channel closes; from then on nothing here references its
// output matrix, timeline or engine state.
type serveState struct {
	fleet *service.Fleet

	mu       sync.Mutex
	active   map[int64]*service.JobHandle
	finished []jobStatus   // FIFO ring of records; overwritten oldest-first once full
	head     int           // ring slot the next record takes
	slot     map[int64]int // finished id → ring index
	maxID    int64         // highest id registered: below it, not retained ⇒ 410
	evicted  int

	// waiters counts the retire goroutines, one per unfinished job.
	waiters sync.WaitGroup
}

// newServeState builds the table; retain is the finished-ring capacity
// (the CLI passes retainFinished).
func newServeState(fleet *service.Fleet, retain int) *serveState {
	if retain < 1 {
		panic("nlfl serve: finished-job ring needs a capacity of at least 1")
	}
	return &serveState{
		fleet:    fleet,
		active:   map[int64]*service.JobHandle{},
		finished: make([]jobStatus, 0, retain),
		slot:     map[int64]int{},
	}
}

// track registers an admitted job and starts its waiter.
func (st *serveState) track(h *service.JobHandle) {
	st.mu.Lock()
	st.active[h.ID()] = h
	st.maxID = max(st.maxID, h.ID())
	st.mu.Unlock()
	st.waiters.Add(1)
	go st.retire(h)
}

// retire waits for the job to become terminal, then swaps its handle for
// a status record in one critical section, so a concurrent poll finds
// the job in one tier or the other. Fleet.Close finalizes every job,
// which is what ends the last waiters.
func (st *serveState) retire(h *service.JobHandle) {
	defer st.waiters.Done()
	<-h.Done()
	s := statusOf(h.ID(), h.Report())
	st.mu.Lock()
	defer st.mu.Unlock()
	delete(st.active, s.ID)
	i := st.head
	if len(st.finished) < cap(st.finished) {
		st.finished = append(st.finished, s)
	} else {
		delete(st.slot, st.finished[i].ID)
		st.evicted++
		st.finished[i] = s
	}
	st.slot[s.ID] = i
	st.head = (i + 1) % cap(st.finished)
}

// submitRequest is the POST /jobs body.
type submitRequest struct {
	Tenant     string  `json:"tenant"`
	N          int     `json:"n"`
	Strategy   string  `json:"strategy"`
	Seed       int64   `json:"seed"`
	DeadlineMs float64 `json:"deadlineMs"`
	MaxWorkers int     `json:"maxWorkers"`
}

// jobStatus is the GET /jobs?id= body: the job ledger minus the output
// matrix and trace (poll state until "done" or "failed", then read the
// volumes; the matrix itself is released once the job is terminal).
type jobStatus struct {
	ID      int64  `json:"id"`
	State   string `json:"state"` // "running", "done" or "failed"
	Tenant  string `json:"tenant,omitempty"`
	N       int    `json:"n,omitempty"`
	Workers []int  `json:"workers,omitempty"`

	Latency         float64 `json:"latency,omitempty"`
	Makespan        float64 `json:"makespan,omitempty"`
	PlanVolume      float64 `json:"planVolume,omitempty"`
	ReplannedVolume float64 `json:"replannedVolume,omitempty"`
	CommittedVolume float64 `json:"committedVolume,omitempty"`
	WastedData      float64 `json:"wastedData,omitempty"`
	ReclaimedCells  int     `json:"reclaimedCells,omitempty"`

	Err string `json:"err,omitempty"`
}

// statusOf is the one builder of a job's status, for the poll of an
// unfinished job (rep == nil ⇒ "running") and for its finished record
// alike. It copies the ledger out of the report, so the result keeps the
// report's matrix and timeline alive no longer than the report itself.
func statusOf(id int64, rep *service.JobReport) jobStatus {
	if rep == nil {
		return jobStatus{ID: id, State: "running"}
	}
	s := jobStatus{
		ID: id, State: "done",
		Tenant: rep.Tenant, N: rep.N, Workers: rep.Workers,
		Latency: rep.Latency, Makespan: rep.Makespan,
		PlanVolume: rep.PlanVolume, ReplannedVolume: rep.ReplannedVolume,
		CommittedVolume: rep.CommittedVolume, WastedData: rep.WastedData,
		ReclaimedCells: rep.ReclaimedCells,
		Err:            rep.Err,
	}
	if rep.Failed {
		s.State = "failed"
	}
	return s
}

// newServeMux wires the fleet API: submit, poll, accounts, health.
func newServeMux(st *serveState) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/jobs", st.handleJobs)
	mux.HandleFunc("/accounts", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, st.fleet.Accounting())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		st.mu.Lock()
		jobs := map[string]int{
			"active":   len(st.active),
			"retained": len(st.finished),
			"evicted":  st.evicted,
		}
		st.mu.Unlock()
		writeJSON(w, http.StatusOK, map[string]any{
			"workers": st.fleet.Workers(),
			"health":  st.fleet.Health(),
			"jobs":    jobs,
		})
	})
	return mux
}

func (st *serveState) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		st.handleSubmit(w, r)
	case http.MethodGet:
		st.handleGet(w, r)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (st *serveState) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes)).Decode(&req); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "bad request body: "+err.Error(), code)
		return
	}
	if req.N > maxServeN {
		writeJSON(w, http.StatusBadRequest, map[string]string{
			"error": fmt.Sprintf("n = %d exceeds this server's limit of %d", req.N, maxServeN),
		})
		return
	}
	h, err := st.fleet.Submit(service.JobSpec{
		Tenant:     req.Tenant,
		N:          req.N,
		Strategy:   req.Strategy,
		Seed:       req.Seed,
		Deadline:   time.Duration(req.DeadlineMs * float64(time.Millisecond)),
		MaxWorkers: req.MaxWorkers,
	})
	if err != nil {
		// Shed load loudly: admission rejection is the backpressure signal,
		// everything else is a spec error. Rejections carry the typed
		// reason so clients can tell quota pressure from fleet overload
		// from the capacity model's amdahl-cap verdict and react
		// differently (back off, resubmit elsewhere, drop the deadline).
		var ae *service.AdmissionError
		if errors.As(err, &ae) {
			w.Header().Set("Retry-After", retryAfter(st.fleet.QueueDepth()))
			writeJSON(w, http.StatusTooManyRequests, map[string]string{
				"error":  err.Error(),
				"reason": string(ae.Reason),
				"detail": ae.Detail,
			})
			return
		}
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	st.track(h)
	writeJSON(w, http.StatusAccepted, map[string]int64{"id": h.ID()})
}

// handleGet answers a poll from whichever tier holds the job. The fleet
// numbers jobs 1, 2, … and gives a number only to a job it admits
// (buildJobLocked increments seq after its last error return), and every
// admitted job is tracked before its id is written to the client: so an
// id in [1, maxID] that is in neither tier was issued and has been
// evicted (410), and any other id was never issued (404).
func (st *serveState) handleGet(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.URL.Query().Get("id"), 10, 64)
	if err != nil {
		http.Error(w, "missing or malformed id", http.StatusBadRequest)
		return
	}
	st.mu.Lock()
	h := st.active[id]
	i, retained := st.slot[id]
	var s jobStatus
	if retained {
		s = st.finished[i]
	}
	issued := id >= 1 && id <= st.maxID
	st.mu.Unlock()
	switch {
	case h != nil:
		writeJSON(w, http.StatusOK, statusOf(id, h.Report()))
	case retained:
		writeJSON(w, http.StatusOK, s)
	case issued:
		http.Error(w, "job no longer retained", http.StatusGone)
	default:
		http.Error(w, "unknown job id", http.StatusNotFound)
	}
}

// retryAfter turns the fleet's queue depth into a Retry-After hint in
// whole seconds: 1s for a shallow queue, one extra second per four
// queued jobs, capped at 30s. Clients should treat it as a *minimum*
// and add their own jitter (see docs/CAPACITY.md) — if every shed
// client sleeps exactly this long, they all come back in the same
// instant and the queue refills at once.
func retryAfter(depth int) string {
	secs := 1 + depth/4
	if secs > 30 {
		secs = 30
	}
	return fmt.Sprintf("%d", secs)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// shutdown is the SIGINT path: admission stops, in-flight jobs get the
// budget to finish, Close fails the stragglers (so every job is
// terminal), the listener stops, and the waiters are joined.
func (st *serveState) shutdown(srv *http.Server, budget time.Duration) {
	dctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	if err := st.fleet.Drain(dctx); err != nil {
		fmt.Printf("nlfl serve: drain incomplete: %v\n", err)
	}
	st.fleet.Close()
	_ = srv.Shutdown(context.Background())
	// No handler is left to track a job, and every tracked job is final.
	st.waiters.Wait()
}

// runServe starts the fleet as a long-lived HTTP service. SIGINT drains
// gracefully: admission stops, in-flight jobs finish (bounded by
// -drain), then the pool shuts down.
func runServe(args []string) error {
	fs := newFlagSet("serve")
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	speeds := fs.String("speeds", "1,2,3,4", "comma-separated worker speeds")
	rate := fs.Float64("rate", 3e4, "cells/s per unit speed")
	bandwidth := fs.Float64("bandwidth", 0, "master link elems/s (0 = unthrottled)")
	policy := fs.String("policy", "srpt", "scheduling policy: fifo, srpt or ii")
	queue := fs.Int("queue", 64, "max unfinished jobs fleet-wide")
	quota := fs.Int("quota", 32, "max unfinished jobs per tenant")
	autoscale := fs.Float64("autoscale", 0, "capacity-model autoscaler theta: cap each job's slice at the predicted speedup knee (0 = off)")
	drain := fs.Duration("drain", 30*time.Second, "graceful drain budget on SIGINT")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sp, err := parseFloats(*speeds)
	if err != nil {
		return err
	}
	fleet, err := service.New(service.Config{
		Speeds:         sp,
		WorkPerSecond:  *rate,
		Link:           nrt.Link{ElemsPerSecond: *bandwidth},
		Policy:         service.Policy(*policy),
		MaxQueue:       *queue,
		TenantQuota:    *quota,
		AutoscaleTheta: *autoscale,
	})
	if err != nil {
		return err
	}
	st := newServeState(fleet, retainFinished)
	srv := &http.Server{Handler: newServeMux(st)}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fleet.Close()
		return err
	}
	fmt.Printf("nlfl serve: fleet of %d workers (%s policy) on http://%s\n",
		fleet.Workers(), *policy, ln.Addr())
	fmt.Println("  POST /jobs      {\"tenant\":\"a\",\"n\":64,\"strategy\":\"het\"} → {\"id\":…}")
	fmt.Println("  GET  /jobs?id=N job status and ledger")
	fmt.Println("  GET  /accounts  fleet + per-tenant accounting")
	fmt.Println("  GET  /healthz   worker health (strikes, quarantine)")

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		fleet.Close()
		return err
	case <-ctx.Done():
	}
	fmt.Println("nlfl serve: draining…")
	st.shutdown(srv, *drain)
	acc := fleet.Accounting()
	fmt.Printf("nlfl serve: done — %d submitted, %d completed, %d failed, %d rejected\n",
		acc.Submitted, acc.Completed, acc.Failed, acc.Rejected)
	return nil
}
