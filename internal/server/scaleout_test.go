package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/amnesiac-sim/amnesiac/internal/harness"
)

// TestRestartServesFromStore is the durability acceptance scenario: a
// daemon computes a report, shuts down, and a NEW daemon over the same
// store directory answers the same spec byte-identically without
// re-executing — amnesia across restarts is gone.
func TestRestartServesFromStore(t *testing.T) {
	dir := t.TempDir()
	spec := `{"kind":"suite","workloads":["is"],"scale":0.05,"policies":["Compiler"]}`

	h1 := newE2E(t, Config{JobWorkers: 1, SimWorkers: 2, StoreDir: dir})
	st, code := h1.post(t, spec)
	if code != http.StatusAccepted {
		t.Fatalf("first submission: HTTP %d, want 202", code)
	}
	h1.followSSE(t, st.ID)
	first := h1.waitTerminal(t, st.ID)
	if first.State != StateDone {
		t.Fatalf("first job = %+v, want done", first)
	}
	report1 := h1.reportBytes(t, first.Key)
	if n := h1.execs.Load(); n != 1 {
		t.Fatalf("first daemon executed %d jobs, want 1", n)
	}
	h1.srv.Close()
	h1.ts.Close()

	// "Restart": a fresh process over the same directory.
	h2 := newE2E(t, Config{JobWorkers: 1, SimWorkers: 2, StoreDir: dir})
	st2, code2 := h2.post(t, spec)
	if code2 != http.StatusOK {
		t.Fatalf("post-restart submission: HTTP %d, want 200 (store hit)", code2)
	}
	if !st2.CacheHit || !st2.StoreHit || st2.State != StateDone {
		t.Fatalf("post-restart submission = %+v, want done store hit", st2)
	}
	report2 := h2.reportBytes(t, st2.Key)
	if !bytes.Equal(report1, report2) {
		t.Fatal("restarted daemon served different report bytes")
	}
	if n := h2.execs.Load(); n != 0 {
		t.Fatalf("restarted daemon re-executed %d times, want 0", n)
	}

	// The SSE stream for the store-hit job ends with a terminal event that
	// carries the store_hit flag for late subscribers.
	events := h2.followSSE(t, st2.ID)
	if len(events) == 0 {
		t.Fatal("no SSE events for the store-hit job")
	}
	last := events[len(events)-1]
	if last.Type != "state" || last.State != StateDone || !last.StoreHit {
		t.Fatalf("store-hit terminal event = %+v, want done with store_hit", last)
	}

	// /metrics exposes the disk tier.
	resp, err := http.Get(h2.ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"amnesiacd_store_hits_total 1",
		"amnesiacd_store_entries 1",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestReportOnlyFromOwnRun: a job's report is the bytes its own execution
// produced. A completion posted for a queued job's ID to the retired
// work-stealing route — which once settled any job with whatever report
// the body carried — changes neither the job nor the durable store.
func TestReportOnlyFromOwnRun(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{JobWorkers: 1, SimWorkers: 1, StoreDir: dir}
	specJSON := `{"kind":"suite","workloads":["is"],"scale":0.05,"policies":["Compiler"]}`
	var spec JobSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		t.Fatal(err)
	}
	want, err := newRunner(1).run(context.Background(), mustNormalize(t, spec), func(Event) {}, nil)
	if err != nil {
		t.Fatal(err)
	}

	h := newE2E(t, cfg)
	block := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(block) }) }
	defer release()
	h.srv.runner.hook = func(JobSpec) { <-block }

	// Wedge the only worker, so the suite job stays queued.
	if _, code := h.post(t, `{"kind":"difftest","seeds":1,"scale":0.05}`); code != http.StatusAccepted {
		t.Fatalf("wedge submission: HTTP %d, want 202", code)
	}
	for deadline := time.Now().Add(5 * time.Second); h.srv.met.running.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("wedge job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	st, code := h.post(t, specJSON)
	if code != http.StatusAccepted || st.State != StateQueued {
		t.Fatalf("suite submission = %+v (HTTP %d), want queued", st, code)
	}

	forged := fmt.Sprintf(`{"id":%q,"state":"done","report":{"forged":true}}`, st.ID)
	resp, err := http.Post(h.ts.URL+"/v1/steal/complete", "application/json", strings.NewReader(forged))
	if err != nil {
		t.Fatalf("POST completion: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode < 400 {
		t.Fatalf("forged completion accepted: HTTP %d", resp.StatusCode)
	}
	var after JobStatus
	h.getJSON(t, "/v1/jobs/"+st.ID, &after)
	if after.State != StateQueued {
		t.Fatalf("forged completion moved the job to %s", after.State)
	}

	release()
	if done := h.waitTerminal(t, st.ID); done.State != StateDone {
		t.Fatalf("suite job = %+v, want done", done)
	}
	if got := h.reportBytes(t, st.Key); !bytes.Equal(got, want) {
		t.Fatalf("served report is not the job's own run:\n%s", got)
	}
	h.srv.Close()
	h.ts.Close()

	// The durable store holds the same bytes.
	h2 := newE2E(t, cfg)
	st2, code2 := h2.post(t, specJSON)
	if code2 != http.StatusOK || !st2.StoreHit {
		t.Fatalf("post-restart submission = %+v (HTTP %d), want a store hit", st2, code2)
	}
	if got := h2.reportBytes(t, st2.Key); !bytes.Equal(got, want) {
		t.Fatalf("restarted daemon served a report that is not the job's own run:\n%s", got)
	}
}

// TestRestartRewarmsPreparedImages: a daemon restarted over the same store
// re-warms the prepared images its predecessor built before any job
// arrives, so a later job over the same workload counts a hit, not a miss.
func TestRestartRewarmsPreparedImages(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{JobWorkers: 1, SimWorkers: 1, StoreDir: dir}

	h1 := newE2E(t, cfg)
	st, code := h1.post(t, `{"kind":"suite","workloads":["is"],"scale":0.05,"policies":["Compiler"]}`)
	if code != http.StatusAccepted {
		t.Fatalf("suite submission: HTTP %d, want 202", code)
	}
	if done := h1.waitTerminal(t, st.ID); done.State != StateDone {
		t.Fatalf("suite job = %+v, want done", done)
	}
	h1.srv.Close()
	h1.ts.Close()

	h2 := newE2E(t, cfg)
	artifacts := h2.srv.runner.artifacts
	for deadline := time.Now().Add(60 * time.Second); artifacts.Stats().Resident == 0; {
		if time.Now().After(deadline) {
			t.Fatal("restarted daemon never re-warmed its prepared image")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if ps := artifacts.Stats(); ps != (harness.CacheStats{Misses: 1, Resident: 1}) {
		t.Fatalf("after re-warm: %+v, want 1 miss and 1 resident image", ps)
	}

	st, code = h2.post(t, `{"kind":"checkpoint","workloads":["is"],"scale":0.05}`)
	if code != http.StatusAccepted {
		t.Fatalf("checkpoint submission: HTTP %d, want 202", code)
	}
	if done := h2.waitTerminal(t, st.ID); done.State != StateDone {
		t.Fatalf("checkpoint job = %+v, want done", done)
	}
	if ps := artifacts.Stats(); ps != (harness.CacheStats{Hits: 1, Misses: 1, Resident: 1}) {
		t.Fatalf("after checkpoint job: %+v, want 1 hit, 1 miss, 1 resident image", ps)
	}
	resp, err := http.Get(h2.ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"amnesiacd_prepared_images 1\n",
		"amnesiacd_prepared_image_hits_total 1\n",
		"amnesiacd_prepared_image_misses_total 1\n",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// replicaSet boots n servers whose advertised URLs are real httptest
// listeners, wired as each other's peers. The handler indirection breaks
// the chicken-and-egg between knowing the listen URL and building the
// Server that needs its peers' URLs.
type replicaSet struct {
	urls  []string
	srvs  []*Server
	ts    []*httptest.Server
	execs []*atomic.Int32
}

func newReplicaSet(t *testing.T, n int, tweak func(i int, cfg *Config)) *replicaSet {
	t.Helper()
	rs := &replicaSet{}
	handlers := make([]atomic.Value, n) // holds http.Handler
	for i := 0; i < n; i++ {
		i := i
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h, _ := handlers[i].Load().(http.Handler)
			if h == nil {
				http.Error(w, "replica booting", http.StatusServiceUnavailable)
				return
			}
			h.ServeHTTP(w, r)
		}))
		rs.ts = append(rs.ts, ts)
		rs.urls = append(rs.urls, ts.URL)
	}
	for i := 0; i < n; i++ {
		var peers []string
		for k, u := range rs.urls {
			if k != i {
				peers = append(peers, u)
			}
		}
		cfg := Config{
			JobWorkers: 1, SimWorkers: 1, QueueCap: 16,
			Self: rs.urls[i], Peers: peers,
		}
		if tweak != nil {
			tweak(i, &cfg)
		}
		srv := mustNew(t, cfg)
		var execs atomic.Int32
		srv.runner.hook = func(JobSpec) { execs.Add(1) }
		rs.srvs = append(rs.srvs, srv)
		rs.execs = append(rs.execs, &execs)
		handlers[i].Store(srv.Handler())
	}
	t.Cleanup(func() {
		for i := range rs.srvs {
			rs.ts[i].Close()
			rs.srvs[i].Close()
		}
	})
	return rs
}

func (rs *replicaSet) totalExecs() int32 {
	var n int32
	for _, e := range rs.execs {
		n += e.Load()
	}
	return n
}

// TestClusterRoutesToOwner: the same spec submitted to every replica
// executes exactly once — non-owners proxy to the ring owner, whose
// coalescing and cache absorb the duplicates.
func TestClusterRoutesToOwner(t *testing.T) {
	rs := newReplicaSet(t, 3, nil)
	spec := `{"kind":"difftest","seeds":2,"scale":0.05}`

	var statuses []JobStatus
	for _, u := range rs.urls {
		resp, err := http.Post(u+"/v1/jobs?wait=1", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatalf("POST to %s: %v", u, err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST to %s: HTTP %d: %s", u, resp.StatusCode, data)
		}
		var st JobStatus
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatalf("bad status from %s: %q", u, data)
		}
		statuses = append(statuses, st)
	}
	for i, st := range statuses {
		if st.State != StateDone {
			t.Fatalf("replica %d returned state %s", i, st.State)
		}
		if st.Key != statuses[0].Key {
			t.Fatalf("replicas disagree on the key: %s vs %s", st.Key, statuses[0].Key)
		}
	}
	if n := rs.totalExecs(); n != 1 {
		t.Fatalf("spec executed %d times across the set, want exactly 1", n)
	}

	// The owner holds the report; every replica can serve it (non-owners
	// proxy the fetch).
	key := statuses[0].Key
	var bodies [][]byte
	for _, u := range rs.urls {
		resp, err := http.Get(u + "/v1/reports/" + key)
		if err != nil {
			t.Fatalf("GET report from %s: %v", u, err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET report from %s: HTTP %d", u, resp.StatusCode)
		}
		bodies = append(bodies, data)
	}
	for i := 1; i < len(bodies); i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("replica %d served different report bytes", i)
		}
	}
}

// TestClusterOwnerDownFallsBackLocally: with the key's owner dead, a
// submission to another replica executes locally and succeeds — graceful
// degradation, never an error.
func TestClusterOwnerDownFallsBackLocally(t *testing.T) {
	rs := newReplicaSet(t, 3, nil)
	spec := mustNormalize(t, JobSpec{Kind: KindDifftest, Seeds: 2, Scale: 0.05})
	key := spec.Key()

	owner, _ := rs.srvs[0].cluster.Owner(key)
	ownerIdx := -1
	for i, u := range rs.urls {
		if u == owner {
			ownerIdx = i
		}
	}
	if ownerIdx < 0 {
		t.Fatalf("owner %s is not in the set %v", owner, rs.urls)
	}
	rs.ts[ownerIdx].Close() // kill the owner
	other := (ownerIdx + 1) % len(rs.urls)

	body, _ := json.Marshal(spec)
	resp, err := http.Post(rs.urls[other]+"/v1/jobs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST with owner down: %v", err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST with owner down: HTTP %d: %s", resp.StatusCode, data)
	}
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("bad status: %q", data)
	}
	if st.State != StateDone {
		t.Fatalf("fallback job state = %s, want done", st.State)
	}
	if n := rs.execs[other].Load(); n != 1 {
		t.Fatalf("fallback replica executed %d jobs, want 1", n)
	}
}

// TestBatchSubmission: one batch request admits several specs, reports
// per-spec outcomes in order, and the jobs complete. Resubmitting the
// batch answers every entry from cache.
func TestBatchSubmission(t *testing.T) {
	h := newE2E(t, Config{JobWorkers: 2, SimWorkers: 1, QueueCap: 16})
	batch := `{"specs":[
		{"kind":"difftest","seeds":1,"scale":0.05},
		{"kind":"difftest","seeds":2,"scale":0.05},
		{"kind":"suite","workloads":["is"],"scale":0.05,"policies":["Compiler"]}
	]}`

	postBatch := func() BatchResponse {
		t.Helper()
		resp, err := http.Post(h.ts.URL+"/v1/jobs/batch", "application/json", strings.NewReader(batch))
		if err != nil {
			t.Fatalf("POST batch: %v", err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST batch: HTTP %d: %s", resp.StatusCode, data)
		}
		var br BatchResponse
		if err := json.Unmarshal(data, &br); err != nil {
			t.Fatalf("bad batch response %q: %v", data, err)
		}
		return br
	}

	br := postBatch()
	if len(br.Jobs) != 3 {
		t.Fatalf("batch returned %d entries, want 3", len(br.Jobs))
	}
	for i, e := range br.Jobs {
		if e.Job == nil {
			t.Fatalf("entry %d rejected: %s (code %d)", i, e.Error, e.Code)
		}
		h.waitTerminal(t, e.Job.ID)
	}
	if n := h.execs.Load(); n != 3 {
		t.Fatalf("batch executed %d jobs, want 3", n)
	}

	br2 := postBatch()
	for i, e := range br2.Jobs {
		if e.Job == nil || !e.Job.CacheHit || e.Code != http.StatusOK {
			t.Fatalf("resubmitted entry %d = %+v, want cache hit", i, e)
		}
	}
	if n := h.execs.Load(); n != 3 {
		t.Fatalf("resubmitted batch re-executed: %d total execs", n)
	}

	// Bad batches are rejected whole.
	for _, bad := range []string{`{}`, `{"specs":[]}`, `{"specs":[{"kind":"nope"}]}`} {
		resp, err := http.Post(h.ts.URL+"/v1/jobs/batch", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatalf("POST bad batch: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad batch %q: HTTP %d, want 400", bad, resp.StatusCode)
		}
	}
}
