// Job lifecycle. A job moves queued → running → {done, failed, timeout,
// canceled}. Queued jobs wait in the server's execution queue, a channel
// of Config.QueueCap jobs: submission never blocks — a full queue rejects
// with 429 + Retry-After (backpressure), so heavy traffic degrades by
// shedding load instead of by unbounded memory growth — and workers take
// jobs in FIFO order.
package server

import (
	"context"
	"sync"
	"time"

	"github.com/amnesiac-sim/amnesiac/internal/trace"
)

// Job states, as reported by GET /v1/jobs/{id}.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateTimeout  = "timeout"
	StateCanceled = "canceled"
)

// Event is one SSE frame on GET /v1/jobs/{id}/events.
type Event struct {
	Type     string `json:"type"`               // "state" or "progress"
	JobID    string `json:"job_id,omitempty"`   // filled by job.emit
	State    string `json:"state,omitempty"`    // on "state" events
	Workload string `json:"workload,omitempty"` // on "progress" events
	Stage    string `json:"stage,omitempty"`
	Done     int    `json:"done,omitempty"`
	Total    int    `json:"total,omitempty"`
	Error    string `json:"error,omitempty"`
	CacheHit bool   `json:"cache_hit,omitempty"`
	// StoreHit marks a cache hit that was served from the durable disk
	// store — i.e. a report that survived a daemon restart.
	StoreHit bool `json:"store_hit,omitempty"`
}

// subBufCap bounds one SSE subscriber's pending events. A slow consumer
// drops intermediate progress frames rather than stalling the job; the SSE
// handler synthesizes the terminal state event if the drop swallowed it
// (see handleEvents), so every completed stream still ends with it.
const subBufCap = 256

// job is one submitted evaluation. All mutable fields are guarded by mu.
type job struct {
	id   string
	key  string
	spec JobSpec

	// deadline is absolute, measured from submission (zero = none). The
	// worker refuses to start a job whose deadline already passed — that is
	// the "expired before it ran" case the queue must survive.
	deadline time.Time
	cancel   context.CancelFunc // non-nil once running; DELETE uses it

	mu        sync.Mutex
	state     string
	err       string
	cacheHit  bool
	storeHit  bool // cache hit served from the durable disk store
	coalesced int  // extra submissions that attached to this execution
	trace     *TraceStatus
	result    []byte
	events    []Event // replay buffer for late SSE subscribers
	subs      map[chan Event]struct{}

	created  time.Time
	started  time.Time
	finished time.Time
	done     chan struct{} // closed on any terminal state
}

func newJob(id, key string, spec JobSpec, now time.Time) *job {
	j := &job{
		id: id, key: key, spec: spec,
		state:   StateQueued,
		created: now,
		subs:    make(map[chan Event]struct{}),
		done:    make(chan struct{}),
	}
	if spec.TimeoutMS > 0 {
		j.deadline = now.Add(time.Duration(spec.TimeoutMS) * time.Millisecond)
	}
	return j
}

// emit appends ev to the replay buffer and fans it out to live
// subscribers. Safe for concurrent use (the harness progress callback runs
// on worker goroutines).
func (j *job) emit(ev Event) {
	ev.JobID = j.id
	j.mu.Lock()
	defer j.mu.Unlock()
	j.events = append(j.events, ev)
	for ch := range j.subs {
		select {
		case ch <- ev:
		default: // slow subscriber: drop this frame for them
		}
	}
}

// subscribe returns a replay of past events plus a live channel. The
// channel closes when the job reaches a terminal state; unsub is
// idempotent and must be called by the consumer.
func (j *job) subscribe() (replay []Event, ch chan Event, unsub func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	replay = append([]Event(nil), j.events...)
	ch = make(chan Event, subBufCap)
	if isTerminal(j.state) {
		close(ch)
		return replay, ch, func() {}
	}
	j.subs[ch] = struct{}{}
	var once sync.Once
	unsub = func() {
		once.Do(func() {
			j.mu.Lock()
			delete(j.subs, ch)
			j.mu.Unlock()
		})
	}
	return replay, ch, unsub
}

// finish moves the job to a terminal state, records the outcome, closes
// every subscriber channel, and emits the final state event. It reports
// false (and does nothing) when the job is already terminal, so cancel
// racing completion settles on exactly one outcome.
func (j *job) finish(state, errMsg string, result []byte, now time.Time) bool {
	j.mu.Lock()
	if isTerminal(j.state) {
		j.mu.Unlock()
		return false
	}
	j.state = state
	j.err = errMsg
	j.result = result
	j.finished = now
	ev := Event{Type: "state", JobID: j.id, State: state, Error: errMsg, CacheHit: j.cacheHit, StoreHit: j.storeHit}
	j.events = append(j.events, ev)
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
		close(ch)
		delete(j.subs, ch)
	}
	j.mu.Unlock()
	close(j.done)
	return true
}

// terminalEvent returns the job's final state event, or false while the
// job is still live. The SSE handler uses it to guarantee every stream
// ends with the terminal state even when a slow subscriber's buffer was
// full when finish fanned the event out.
func (j *job) terminalEvent() (Event, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !isTerminal(j.state) {
		return Event{}, false
	}
	return Event{Type: "state", JobID: j.id, State: j.state, Error: j.err, CacheHit: j.cacheHit, StoreHit: j.storeHit}, true
}

func isTerminal(state string) bool {
	switch state {
	case StateDone, StateFailed, StateTimeout, StateCanceled:
		return true
	}
	return false
}

// JobStatus is the JSON rendering of a job, returned by POST /v1/jobs and
// GET /v1/jobs/{id}.
type JobStatus struct {
	ID       string `json:"id"`
	Key      string `json:"key"`
	Kind     string `json:"kind"`
	State    string `json:"state"`
	CacheHit bool   `json:"cache_hit"`
	// StoreHit marks a cache hit served from the durable disk store.
	StoreHit  bool   `json:"store_hit,omitempty"`
	Coalesced int    `json:"coalesced,omitempty"`
	Error     string `json:"error,omitempty"`
	Created   string `json:"created"`
	Started   string `json:"started,omitempty"`
	Finished  string `json:"finished,omitempty"`
	// ReportURL serves the result once State == "done".
	ReportURL string `json:"report_url,omitempty"`
	// EventsURL streams progress (SSE) for the job's lifetime.
	EventsURL string `json:"events_url"`
	// Trace summarizes the trace-engine activity of the job's amnesic
	// simulations; omitted for jobs that ran none (cache hits, difftest).
	Trace *TraceStatus `json:"trace,omitempty"`
}

// TraceStatus is the JSON rendering of a job's aggregated trace-engine
// counters (see trace.Stats).
type TraceStatus struct {
	Built          uint64  `json:"built"`
	Blacklisted    uint64  `json:"blacklisted"`
	Replays        uint64  `json:"replays"`
	ReplayedInstrs uint64  `json:"replayed_instrs"`
	TotalInstrs    uint64  `json:"total_instrs"`
	CoveragePct    float64 `json:"coverage_pct"`
}

// setTrace records the job's trace-engine aggregate for status rendering.
func (j *job) setTrace(s trace.Stats) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.trace = &TraceStatus{
		Built:          s.Built,
		Blacklisted:    s.Blacklisted,
		Replays:        s.Replays,
		ReplayedInstrs: s.ReplayedInstrs,
		TotalInstrs:    s.TotalInstrs,
		CoveragePct:    s.Coverage(),
	}
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID: j.id, Key: j.key, Kind: j.spec.Kind,
		State: j.state, CacheHit: j.cacheHit, StoreHit: j.storeHit, Coalesced: j.coalesced,
		Error:     j.err,
		Created:   j.created.UTC().Format(time.RFC3339Nano),
		EventsURL: "/v1/jobs/" + j.id + "/events",
	}
	if !j.started.IsZero() {
		st.Started = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		st.Finished = j.finished.UTC().Format(time.RFC3339Nano)
	}
	if j.state == StateDone {
		st.ReportURL = "/v1/reports/" + j.key
	}
	if j.trace != nil {
		t := *j.trace
		st.Trace = &t
	}
	return st
}
