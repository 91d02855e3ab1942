// Package server is the evaluation-as-a-service layer over the harness: a
// long-running daemon that accepts suite / break-even / difftest jobs over
// HTTP/JSON, executes them on a bounded worker pool with per-job deadlines,
// streams progress over SSE, and serves results from a content-addressed
// cache with a memory LRU tier over an optional durable disk store, so
// computed reports survive restarts. Identical in-flight submissions
// coalesce onto one execution. With -peers configured, replicas route jobs
// to the key's ring owner and fall back to local execution when the owner
// is down (see cluster.go).
//
// API:
//
//	POST   /v1/jobs              submit a JobSpec (202; 200 on cache hit;
//	                             429 + Retry-After under backpressure;
//	                             ?wait=1 blocks until terminal and cancels
//	                             a sole submission on client disconnect)
//	POST   /v1/jobs/batch        submit many specs in one request
//	GET    /v1/jobs              list recent jobs
//	GET    /v1/jobs/{id}         job status
//	DELETE /v1/jobs/{id}         cancel (queued or running)
//	GET    /v1/jobs/{id}/events  SSE progress stream (replays, then live)
//	GET    /v1/reports/{key}     report bytes by content address
//	GET    /healthz              liveness + build identity
//	GET    /metrics              Prometheus text format
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"github.com/amnesiac-sim/amnesiac/internal/buildinfo"
	"github.com/amnesiac-sim/amnesiac/internal/cluster"
	"github.com/amnesiac-sim/amnesiac/internal/store"
	"github.com/amnesiac-sim/amnesiac/internal/trace"
)

// Config sizes the service. Zero values take the stated defaults.
type Config struct {
	// QueueCap bounds jobs waiting to execute (default 64). Submissions
	// beyond it are rejected with 429 + Retry-After.
	QueueCap int
	// JobWorkers is the number of jobs executing concurrently (default 2).
	JobWorkers int
	// SimWorkers is each job's harness worker count (0 = GOMAXPROCS).
	SimWorkers int
	// CacheEntries bounds the LRU result cache (default 128 reports).
	CacheEntries int
	// StoreDir, when non-empty, enables the durable disk store under the
	// memory cache: reports and prepared-image metadata survive restarts.
	StoreDir string
	// StoreMaxBytes bounds the durable store (default 256 MiB).
	StoreMaxBytes int64
	// Self is this replica's advertised base URL; required with Peers.
	Self string
	// Peers are the other replicas' base URLs. Empty = single node.
	Peers []string
	// Log receives operational messages; nil discards them.
	Log *log.Logger
}

func (c Config) withDefaults() Config {
	if c.QueueCap == 0 {
		c.QueueCap = 64
	}
	if c.JobWorkers == 0 {
		c.JobWorkers = 2
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 128
	}
	if c.StoreMaxBytes == 0 {
		c.StoreMaxBytes = 256 << 20
	}
	if c.Log == nil {
		c.Log = log.New(io.Discard, "", 0)
	}
	return c
}

// maxRetainedJobs bounds the in-memory job index; the oldest terminal jobs
// are pruned past it (their reports survive in the result cache).
const maxRetainedJobs = 1024

// maxBodyBytes bounds a submission body.
const maxBodyBytes = 1 << 20

// Server is one service instance. Create with New, serve via Handler, and
// stop with Drain (graceful) or Close (immediate).
type Server struct {
	cfg     Config
	log     *log.Logger
	runner  *runner
	cache   *resultCache
	store   *store.Store     // nil without -store-dir
	cluster *cluster.Cluster // disabled without -peers
	met     metrics

	baseCtx    context.Context
	baseCancel context.CancelFunc

	// queue holds admitted jobs in FIFO order. Its capacity,
	// Config.QueueCap, is the backpressure bound: sends happen under mu
	// and never block (a full queue is a 429), and Drain closes it under mu.
	queue    chan *job
	workerWG sync.WaitGroup
	rewarmWG sync.WaitGroup // the background re-warm after a restart

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string        // job ids in creation order, for listing/pruning
	inflight map[string]*job // key → queued-or-running job, for coalescing
	nextID   uint64
	draining atomic.Bool

	prepMu    sync.Mutex // serializes prepared-manifest writes
	persisted int        // resident images in the last manifest written

	started time.Time
}

// New opens the durable store (when configured), validates the replica
// set, and starts the job workers. The caller owns the HTTP listener.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	var st *store.Store
	if cfg.StoreDir != "" {
		var err error
		st, err = store.Open(cfg.StoreDir, cfg.StoreMaxBytes)
		if err != nil {
			return nil, err
		}
	}
	cl, err := cluster.New(cluster.Config{Self: cfg.Self, Peers: cfg.Peers})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		log:        cfg.Log,
		runner:     newRunner(cfg.SimWorkers),
		cache:      newResultCache(cfg.CacheEntries, st),
		store:      st,
		cluster:    cl,
		baseCtx:    ctx,
		baseCancel: cancel,
		queue:      make(chan *job, cfg.QueueCap),
		jobs:       make(map[string]*job),
		inflight:   make(map[string]*job),
		started:    time.Now(),
	}
	for i := 0; i < cfg.JobWorkers; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	if st != nil {
		s.restorePrepared()
	}
	return s, nil
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("POST /v1/jobs/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/reports/{key}", s.handleReport)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// Drain gracefully shuts the service down: stop accepting submissions,
// let queued and running jobs finish, then flush cache statistics to the
// log. If ctx expires first, running jobs are cancelled (they finish in
// state "canceled") and Drain waits for the workers to exit.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := !s.draining.CompareAndSwap(false, true)
	if !already {
		close(s.queue) // submit checks draining under s.mu, so no racing send
	}
	s.mu.Unlock()
	if already {
		return errors.New("server: already draining")
	}

	done := make(chan struct{})
	go func() {
		s.workerWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.log.Printf("amnesiacd: drain deadline hit; cancelling running jobs")
		s.baseCancel()
		<-done
	}
	s.baseCancel()
	s.rewarmWG.Wait()
	cs := s.cache.stats()
	s.log.Printf("amnesiacd: drained; result cache hits=%d misses=%d evictions=%d entries=%d",
		cs.Hits, cs.Misses, cs.Evictions, cs.Entries)
	return nil
}

// Close stops immediately: running jobs are cancelled at the next harness
// job boundary. Intended for tests and fatal-error paths.
func (s *Server) Close() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s.Drain(ctx)
}

// --- submission ---

type submitResult struct {
	job    *job
	status JobStatus
	code   int
}

// submit runs the accept path under s.mu: coalesce onto an identical
// in-flight job, serve a cache hit as an immediately-terminal job, or
// enqueue — rejecting with 429 when the queue is full.
func (s *Server) submit(spec JobSpec) (submitResult, error) {
	key := spec.Key()
	now := time.Now()

	s.mu.Lock()
	defer s.mu.Unlock()

	if s.draining.Load() {
		return submitResult{}, errDraining
	}

	// Coalesce: an identical job is already queued or running; attach.
	if j := s.inflight[key]; j != nil {
		j.mu.Lock()
		j.coalesced++
		j.mu.Unlock()
		s.met.submitted.Add(1)
		s.met.coalesced.Add(1)
		return submitResult{job: j, status: j.status(), code: http.StatusAccepted}, nil
	}

	// Fetch: the report was computed before; answer without executing. A
	// disk-tier hit is a report that survived a restart — marked StoreHit.
	if data, tier := s.cache.get(key); tier != tierMiss {
		j := newJob(s.newIDLocked(), key, spec, now)
		j.cacheHit = true
		j.storeHit = tier == tierDisk
		s.indexLocked(j)
		j.finish(StateDone, "", data, now)
		s.met.submitted.Add(1)
		return submitResult{job: j, status: j.status(), code: http.StatusOK}, nil
	}

	// Recompute: enqueue, with backpressure.
	j := newJob(s.newIDLocked(), key, spec, now)
	select {
	case s.queue <- j:
	default:
		s.met.rejected.Add(1)
		return submitResult{}, errQueueFull
	}
	s.indexLocked(j)
	s.inflight[key] = j
	s.met.submitted.Add(1)
	return submitResult{job: j, status: j.status(), code: http.StatusAccepted}, nil
}

var (
	errDraining  = errors.New("server draining; not accepting jobs")
	errQueueFull = errors.New("job queue full")
)

func (s *Server) newIDLocked() string {
	s.nextID++
	return fmt.Sprintf("j%08d", s.nextID)
}

// indexLocked registers a job and prunes the oldest terminal jobs past the
// retention bound. Caller holds s.mu.
func (s *Server) indexLocked(j *job) {
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	if len(s.order) <= maxRetainedJobs {
		return
	}
	kept := s.order[:0]
	pruned := 0
	for _, id := range s.order {
		old := s.jobs[id]
		if pruned < len(s.order)-maxRetainedJobs && old != nil {
			old.mu.Lock()
			terminal := isTerminal(old.state)
			old.mu.Unlock()
			if terminal {
				delete(s.jobs, id)
				pruned++
				continue
			}
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// --- execution ---

func (s *Server) worker() {
	defer s.workerWG.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

func (s *Server) runJob(j *job) {
	now := time.Now()
	j.mu.Lock()
	if isTerminal(j.state) { // cancelled while queued
		j.mu.Unlock()
		return
	}
	if !j.deadline.IsZero() && !now.Before(j.deadline) {
		j.mu.Unlock()
		s.finalize(j, StateTimeout, "deadline expired before execution started", nil)
		return
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if j.deadline.IsZero() {
		ctx, cancel = context.WithCancel(s.baseCtx)
	} else {
		ctx, cancel = context.WithDeadline(s.baseCtx, j.deadline)
	}
	j.cancel = cancel
	j.state = StateRunning
	j.started = now
	j.mu.Unlock()
	defer cancel()

	s.met.running.Add(1)
	j.emit(Event{Type: "state", State: StateRunning})
	obs := new(trace.Agg)
	data, err := s.execute(ctx, j, obs)
	s.met.running.Add(-1)
	if ts := obs.Load(); ts.TotalInstrs > 0 {
		s.met.observeTrace(ts)
		j.setTrace(ts)
	}

	switch {
	case err == nil:
		if perr := s.cache.put(j.key, data); perr != nil {
			// Memory tier still serves the report; only restart
			// durability is lost for this key.
			s.log.Printf("amnesiacd: persist report %s: %v", j.key, perr)
		}
		s.finalize(j, StateDone, "", data)
	case errors.Is(ctx.Err(), context.DeadlineExceeded):
		s.finalize(j, StateTimeout, err.Error(), nil)
	case errors.Is(ctx.Err(), context.Canceled):
		s.finalize(j, StateCanceled, err.Error(), nil)
	default:
		s.log.Printf("amnesiacd: job %s failed: %v", j.id, err)
		s.finalize(j, StateFailed, err.Error(), nil)
	}
}

// execute runs j's spec. A panic out of the run fails only this job: it
// becomes the job's error, with the stack in the log, and like any other
// failure it is not cached, so resubmitting the spec runs it again.
func (s *Server) execute(ctx context.Context, j *job, obs *trace.Agg) (data []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.log.Printf("amnesiacd: job %s panicked: %v\n%s", j.id, r, debug.Stack())
			data, err = nil, fmt.Errorf("server: job panicked: %v", r)
		}
	}()
	return s.runner.run(ctx, j.spec, j.emit, obs)
}

// finalize moves j to a terminal state exactly once, updating metrics and
// releasing the coalescing slot. The slot is released first, so an
// identical submission racing the finish either coalesces onto a job that
// has not settled yet or starts a fresh one — never attaches to a
// finished job's outcome (a settled failure would be handed back as its
// own).
func (s *Server) finalize(j *job, state, errMsg string, result []byte) {
	s.mu.Lock()
	if s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	s.mu.Unlock()
	if !j.finish(state, errMsg, result, time.Now()) {
		return
	}
	switch state {
	case StateDone:
		s.met.completed.Add(1)
		s.persistPrepared()
	case StateFailed:
		s.met.failed.Add(1)
	case StateTimeout:
		s.met.timeouts.Add(1)
	case StateCanceled:
		s.met.canceled.Add(1)
	}
}

// cancelIfSolo cancels j only when no other submission has a stake in it:
// nobody coalesced onto it and it was not a cache hit. The solo check and
// the removal from the coalescing index happen under s.mu — the same lock
// submit coalesces under — so a concurrent identical submission either
// attaches before the check (solo is false, no cancel) or finds the key
// free and starts its own job; it can never coalesce onto a job that is
// about to be cancelled.
func (s *Server) cancelIfSolo(j *job) {
	s.mu.Lock()
	j.mu.Lock()
	solo := j.coalesced == 0 && !j.cacheHit
	j.mu.Unlock()
	if solo && s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	s.mu.Unlock()
	if solo {
		s.cancelJob(j)
	}
}

// cancelJob cancels a queued or running job; false if already terminal.
func (s *Server) cancelJob(j *job) bool {
	j.mu.Lock()
	if isTerminal(j.state) {
		j.mu.Unlock()
		return false
	}
	queued := j.state == StateQueued
	cancel := j.cancel
	j.mu.Unlock()
	if queued {
		// Finalize now; the worker skips terminal jobs when it pops them.
		s.finalize(j, StateCanceled, "canceled while queued", nil)
		return true
	}
	if cancel != nil {
		cancel() // runJob finalizes with state canceled
	}
	return true
}

func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// --- HTTP handlers ---

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "invalid job spec: "+err.Error())
		return
	}
	spec, err := spec.Normalize()
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid job spec: "+err.Error())
		return
	}

	// Route to the key's ring owner when that is another, healthy replica
	// and we cannot answer from a local cache tier. A proxy failure falls
	// through to local execution — degradation, never an error.
	if s.proxyToOwner(w, r, spec) {
		return
	}

	res, err := s.submit(spec)
	switch {
	case errors.Is(err, errDraining):
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err.Error())
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}

	if wait := r.URL.Query().Get("wait"); wait == "1" || wait == "true" {
		select {
		case <-res.job.done:
			writeJSON(w, http.StatusOK, res.job.status())
		case <-r.Context().Done():
			// Client went away. Cancel only when nobody else asked for this
			// execution — a coalesced or cached job has other stakeholders.
			s.cancelIfSolo(res.job)
		}
		return
	}
	writeJSON(w, res.code, res.status)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*job, 0, len(ids))
	for i := len(ids) - 1; i >= 0 && len(jobs) < 100; i-- {
		if j := s.jobs[ids[i]]; j != nil {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	if !s.cancelJob(j) {
		writeError(w, http.StatusConflict, "job already finished")
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	data, ok := s.cache.peek(key)
	if !ok {
		// The report may still live on a retained job after eviction.
		s.mu.Lock()
		for _, j := range s.jobs {
			j.mu.Lock()
			if j.key == key && j.state == StateDone && j.result != nil {
				data, ok = j.result, true
			}
			j.mu.Unlock()
			if ok {
				break
			}
		}
		s.mu.Unlock()
	}
	if !ok {
		// The key's ring owner may hold the report (e.g. the submission
		// that computed it was proxied there).
		if s.proxyReport(w, r, key) {
			return
		}
		writeError(w, http.StatusNotFound, "unknown report")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Amnesiac-Report-Key", key)
	_, _ = w.Write(data)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":       status,
		"version":      buildinfo.Version,
		"revision":     buildinfo.Revision(),
		"build":        buildinfo.String(),
		"uptime_s":     int64(time.Since(s.started).Seconds()),
		"jobs_running": s.met.running.Load(),
		"queue_depth":  len(s.queue),
		"peers":        len(s.cluster.Peers()),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.met.write(w, s.cache.stats(), s.runner.artifacts.Stats(), s.cache.storeStats(),
		s.cluster.Stats(), len(s.queue), s.cfg.QueueCap, s.draining.Load())
}
