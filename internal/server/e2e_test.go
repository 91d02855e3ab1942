package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// e2eHarness is an in-process server behind a real HTTP listener.
type e2eHarness struct {
	srv   *Server
	ts    *httptest.Server
	execs *atomic.Int32
}

func newE2E(t *testing.T, cfg Config) *e2eHarness {
	t.Helper()
	srv := mustNew(t, cfg)
	var execs atomic.Int32
	srv.runner.hook = func(JobSpec) { execs.Add(1) }
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return &e2eHarness{srv: srv, ts: ts, execs: &execs}
}

func (h *e2eHarness) post(t *testing.T, body string) (JobStatus, int) {
	t.Helper()
	resp, err := http.Post(h.ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	var st JobStatus
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatalf("bad job status %q: %v", data, err)
		}
	}
	return st, resp.StatusCode
}

func (h *e2eHarness) getJSON(t *testing.T, path string, v any) int {
	t.Helper()
	resp, err := http.Get(h.ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, v); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", path, data, err)
		}
	}
	return resp.StatusCode
}

func (h *e2eHarness) reportBytes(t *testing.T, key string) []byte {
	t.Helper()
	resp, err := http.Get(h.ts.URL + "/v1/reports/" + key)
	if err != nil {
		t.Fatalf("GET report: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET report: %s", resp.Status)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read report: %v", err)
	}
	return data
}

// followSSE consumes the job's event stream to the end, returning the
// events seen. The stream terminates when the job reaches a terminal
// state, so this also acts as a completion wait.
func (h *e2eHarness) followSSE(t *testing.T, id string) []Event {
	t.Helper()
	resp, err := http.Get(h.ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type = %q", ct)
	}
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
			t.Fatalf("bad SSE data %q: %v", line, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("SSE scan: %v", err)
	}
	return events
}

func (h *e2eHarness) waitTerminal(t *testing.T, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		var st JobStatus
		if code := h.getJSON(t, "/v1/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("GET job %s: status %d", id, code)
		}
		if isTerminal(st.State) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, st.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestEndToEnd is the acceptance scenario: the same suite job submitted
// twice — the first executes and streams progress over SSE, the second is
// answered byte-identically from cache without re-executing; a job whose
// deadline expired before it could start reports timeout and the queue
// keeps serving afterward.
func TestEndToEnd(t *testing.T) {
	h := newE2E(t, Config{JobWorkers: 1, SimWorkers: 2, QueueCap: 8})

	// -- first submission: executes, streams progress --
	spec := `{"kind":"suite","workloads":["is"],"scale":0.05,"policies":["Compiler","FLC"]}`
	st, code := h.post(t, spec)
	if code != http.StatusAccepted {
		t.Fatalf("first submission: HTTP %d, want 202", code)
	}
	if st.CacheHit {
		t.Fatal("first submission claimed a cache hit")
	}
	events := h.followSSE(t, st.ID)
	progress := 0
	for _, ev := range events {
		if ev.Type != "progress" {
			continue
		}
		progress++
		// The policy subset is executed, not just filtered from the report:
		// no stage outside {prepare, Compiler, FLC} may run, and Total
		// counts only the requested stages (1 workload × (1 + 2 policies)).
		switch ev.Stage {
		case "prepare", "Compiler", "FLC":
		default:
			t.Errorf("unselected policy stage %q executed (event %+v)", ev.Stage, ev)
		}
		if ev.Total != 3 {
			t.Errorf("progress Total = %d, want 3 (selected stages only)", ev.Total)
		}
	}
	if progress < 1 {
		t.Fatalf("streamed %d progress events, want >= 1 (events: %+v)", progress, events)
	}
	last := events[len(events)-1]
	if last.Type != "state" || last.State != StateDone {
		t.Fatalf("final SSE event = %+v, want state done", last)
	}
	first := h.waitTerminal(t, st.ID)
	if first.State != StateDone || first.ReportURL == "" {
		t.Fatalf("first job = %+v, want done with a report URL", first)
	}
	firstReport := h.reportBytes(t, first.Key)
	if n := h.execs.Load(); n != 1 {
		t.Fatalf("first submission executed %d times", n)
	}

	// -- second submission: same spec, shuffled field order → cache hit --
	shuffled := `{"policies":["FLC","Compiler"],"scale":0.05,"workloads":["is"],"kind":"suite"}`
	st2, code2 := h.post(t, shuffled)
	if code2 != http.StatusOK {
		t.Fatalf("cached submission: HTTP %d, want 200", code2)
	}
	if !st2.CacheHit || st2.State != StateDone {
		t.Fatalf("cached submission = %+v, want immediate done cache hit", st2)
	}
	if st2.Key != first.Key {
		t.Fatalf("shuffled spec hashed differently: %s vs %s", st2.Key, first.Key)
	}
	secondReport := h.reportBytes(t, st2.Key)
	if !bytes.Equal(firstReport, secondReport) {
		t.Fatal("cached report is not byte-identical to the first run")
	}
	if n := h.execs.Load(); n != 1 {
		t.Fatalf("cache hit re-executed the suite (%d executions)", n)
	}
	// The cached job's SSE stream still replays a terminal state.
	cachedEvents := h.followSSE(t, st2.ID)
	if len(cachedEvents) == 0 || cachedEvents[len(cachedEvents)-1].State != StateDone {
		t.Fatalf("cached job SSE = %+v, want a done state replay", cachedEvents)
	}

	// -- expired deadline: timeout status, queue stays usable --
	// Block the only worker so the dated job is guaranteed to outlive its
	// 1ms deadline while still queued.
	blocked := make(chan struct{})
	h.srv.runner.hook = func(sp JobSpec) {
		h.execs.Add(1)
		if sp.Kind == KindDifftest {
			<-blocked
		}
	}
	stall, code := h.post(t, `{"kind":"difftest","seeds":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("stall submission: HTTP %d", code)
	}
	for h.srv.met.running.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	dated, code := h.post(t, `{"kind":"suite","workloads":["cg"],"scale":0.05,"timeout_ms":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("dated submission: HTTP %d", code)
	}
	time.Sleep(5 * time.Millisecond) // let the 1ms deadline lapse while queued
	close(blocked)
	if got := h.waitTerminal(t, dated.ID); got.State != StateTimeout {
		t.Fatalf("dated job state = %s (%s), want timeout", got.State, got.Error)
	}
	h.waitTerminal(t, stall.ID)
	execsBefore := h.execs.Load()

	// Queue must still serve: a fresh job completes normally.
	after, code := h.post(t, `{"kind":"suite","workloads":["cg"],"scale":0.05,"policies":["Compiler"]}`)
	if code != http.StatusAccepted {
		t.Fatalf("post-timeout submission: HTTP %d, want 202", code)
	}
	if got := h.waitTerminal(t, after.ID); got.State != StateDone {
		t.Fatalf("post-timeout job = %+v, want done", got)
	}
	if n := h.execs.Load(); n != execsBefore+1 {
		t.Fatalf("post-timeout executions = %d, want %d", n, execsBefore+1)
	}

	// Metrics reflect the story.
	resp, err := http.Get(h.ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	metricsText, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"amnesiacd_result_cache_hits_total 1",
		"amnesiacd_jobs_timeout_total 1",
		"amnesiacd_build_info",
	} {
		if !strings.Contains(string(metricsText), want) {
			t.Errorf("/metrics missing %q:\n%s", want, metricsText)
		}
	}
}

// TestEndToEndValidation: malformed and unknown-field specs are rejected
// with 400 before touching the queue.
func TestEndToEndValidation(t *testing.T) {
	h := newE2E(t, Config{JobWorkers: 1, SimWorkers: 1})
	for _, body := range []string{
		`{`,
		`{"kind":"nope"}`,
		`{"kind":"suite","workloads":["no-such"]}`,
		`{"kind":"suite","bogus_field":1}`,
		`{"kind":"suite","timeout_ms":-4}`,
	} {
		if _, code := h.post(t, body); code != http.StatusBadRequest {
			t.Errorf("POST %s: HTTP %d, want 400", body, code)
		}
	}
	if code := h.getJSON(t, "/v1/jobs/j999", nil); code != http.StatusNotFound {
		t.Errorf("unknown job: HTTP %d, want 404", code)
	}
	if code := h.getJSON(t, "/v1/reports/deadbeef", nil); code != http.StatusNotFound {
		t.Errorf("unknown report: HTTP %d, want 404", code)
	}
}

// TestEndToEndHealthz: build identity and liveness.
func TestEndToEndHealthz(t *testing.T) {
	h := newE2E(t, Config{JobWorkers: 1, SimWorkers: 1})
	var health map[string]any
	if code := h.getJSON(t, "/healthz", &health); code != http.StatusOK {
		t.Fatalf("GET /healthz: %d", code)
	}
	if health["status"] != "ok" {
		t.Errorf("healthz status = %v", health["status"])
	}
	for _, k := range []string{"version", "revision", "build"} {
		if v, ok := health[k].(string); !ok || v == "" {
			t.Errorf("healthz missing %s: %v", k, health[k])
		}
	}
}

// TestEndToEndWaitMode: ?wait=1 blocks until the job is terminal and
// returns the final status in one round trip.
func TestEndToEndWaitMode(t *testing.T) {
	h := newE2E(t, Config{JobWorkers: 1, SimWorkers: 2})
	body := `{"kind":"suite","workloads":["is"],"scale":0.05,"policies":["Compiler"]}`
	resp, err := http.Post(h.ts.URL+"/v1/jobs?wait=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST ?wait=1: %v", err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.StatusCode != http.StatusOK || st.State != StateDone {
		t.Fatalf("wait-mode response = HTTP %d %+v, want 200 done", resp.StatusCode, st)
	}
}

// TestEndToEndCheckpoint: a checkpoint job runs both policies per workload,
// every restart verifies bit-identical against the classic baseline, and the
// recomp policy's checkpoint payload is strictly smaller than full's.
func TestEndToEndCheckpoint(t *testing.T) {
	h := newE2E(t, Config{JobWorkers: 1, SimWorkers: 2, QueueCap: 4})
	st, code := h.post(t, `{"kind":"checkpoint","workloads":["is"],"scale":0.05}`)
	if code != http.StatusAccepted {
		t.Fatalf("checkpoint submission: HTTP %d, want 202", code)
	}
	got := h.waitTerminal(t, st.ID)
	if got.State != StateDone {
		t.Fatalf("checkpoint job = %+v, want done", got)
	}
	var rep Report
	if err := json.Unmarshal(h.reportBytes(t, got.Key), &rep); err != nil {
		t.Fatalf("decode report: %v", err)
	}
	if len(rep.Checkpoint) != 2 {
		t.Fatalf("checkpoint rows = %d, want 2 (full + recomp)", len(rep.Checkpoint))
	}
	rows := map[string]CheckpointRow{}
	for _, r := range rep.Checkpoint {
		if !r.Verified {
			t.Errorf("%s/%s restart not verified", r.Name, r.Policy)
		}
		if r.Checkpoints < 1 {
			t.Errorf("%s/%s took no checkpoints", r.Name, r.Policy)
		}
		rows[r.Policy] = r
	}
	full, recomp := rows["full"], rows["recomp"]
	if full.Policy == "" || recomp.Policy == "" {
		t.Fatalf("missing policy rows: %+v", rep.Checkpoint)
	}
	if recomp.AvgPayloadWords >= full.AvgPayloadWords {
		t.Errorf("recomp payload %.1f words >= full %.1f: omission bought nothing",
			recomp.AvgPayloadWords, full.AvgPayloadWords)
	}
}

// TestJobList: the listing endpoint returns recent jobs.
func TestJobList(t *testing.T) {
	h := newE2E(t, Config{JobWorkers: 1, SimWorkers: 1})
	st, _ := h.post(t, `{"kind":"difftest","seeds":1}`)
	h.waitTerminal(t, st.ID)
	var jobs []JobStatus
	if code := h.getJSON(t, "/v1/jobs", &jobs); code != http.StatusOK {
		t.Fatalf("GET /v1/jobs: %d", code)
	}
	if len(jobs) != 1 || jobs[0].ID != st.ID {
		t.Fatalf("job list = %+v, want the one submitted job", jobs)
	}
}

// TestJobPanicContained: a panic out of one job's run fails only that job,
// with the panic value in its error. A job running beside it finishes
// done, the running gauge returns to zero, /healthz stays ok, and the
// failure is not cached: resubmitting the spec runs it again.
func TestJobPanicContained(t *testing.T) {
	h := newE2E(t, Config{JobWorkers: 2, SimWorkers: 1})
	var once sync.Once
	started := make(chan struct{}) // the other job has begun executing
	h.srv.runner.hook = func(sp JobSpec) {
		h.execs.Add(1)
		if sp.Kind == KindDifftest {
			<-started
			panic("injected fault")
		}
		once.Do(func() { close(started) })
	}
	const faulty = `{"kind":"difftest","seeds":1}`
	bad, code := h.post(t, faulty)
	if code != http.StatusAccepted {
		t.Fatalf("faulty submission: HTTP %d", code)
	}
	good, code := h.post(t, `{"kind":"suite","workloads":["is"],"scale":0.05,"policies":["Compiler"]}`)
	if code != http.StatusAccepted {
		t.Fatalf("concurrent submission: HTTP %d", code)
	}
	if st := h.waitTerminal(t, bad.ID); st.State != StateFailed || !strings.Contains(st.Error, "panicked: injected fault") {
		t.Fatalf("faulty job = %s (%q), want failed with the panic value", st.State, st.Error)
	}
	if st := h.waitTerminal(t, good.ID); st.State != StateDone {
		t.Fatalf("concurrent job = %s (%s), want done", st.State, st.Error)
	}
	var health map[string]any
	if code := h.getJSON(t, "/healthz", &health); code != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("/healthz = HTTP %d %v after a job panicked", code, health)
	}
	if n := health["jobs_running"]; n != float64(0) {
		t.Errorf("jobs_running = %v with no job running", n)
	}

	before := h.execs.Load()
	again, code := h.post(t, faulty)
	if code != http.StatusAccepted || again.CacheHit {
		t.Fatalf("resubmission: HTTP %d, cache hit %v; want a fresh execution", code, again.CacheHit)
	}
	if st := h.waitTerminal(t, again.ID); st.State != StateFailed {
		t.Fatalf("resubmitted job = %s, want failed again", st.State)
	}
	if n := h.execs.Load(); n != before+1 {
		t.Errorf("resubmission made %d executions, want 1", n-before)
	}
}
