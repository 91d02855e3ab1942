package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func mustNormalize(t *testing.T, spec JobSpec) JobSpec {
	t.Helper()
	out, err := spec.Normalize()
	if err != nil {
		t.Fatalf("Normalize(%+v): %v", spec, err)
	}
	return out
}

func waitDone(t *testing.T, j *job) {
	t.Helper()
	select {
	case <-j.done:
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s did not finish", j.id)
	}
}

// mustNew builds a server or fails the test.
func mustNew(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return srv
}

// blockableServer wires a hook that counts executions and can hold the
// worker inside the first stage of a run.
func blockableServer(t *testing.T, cfg Config) (*Server, *atomic.Int32, func()) {
	t.Helper()
	srv := mustNew(t, cfg)
	block := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(block) }) }
	var execs atomic.Int32
	srv.runner.hook = func(JobSpec) {
		execs.Add(1)
		<-block
	}
	t.Cleanup(func() {
		release()
		srv.Close()
	})
	return srv, &execs, release
}

// TestCoalescing: N identical in-flight submissions share one execution
// and one job ID; a later identical submission is a cache hit. The
// injected hook counts actual executions.
func TestCoalescing(t *testing.T) {
	srv, execs, release := blockableServer(t, Config{JobWorkers: 1, SimWorkers: 1})
	spec := mustNormalize(t, JobSpec{Kind: KindDifftest, Seeds: 1})

	first, err := srv.submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	// Wait for the worker to be inside the run, so the duplicates are
	// genuinely concurrent with the execution.
	for execs.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	const dups = 4
	for i := 0; i < dups; i++ {
		res, err := srv.submit(spec)
		if err != nil {
			t.Fatalf("duplicate submit %d: %v", i, err)
		}
		if res.job != first.job {
			t.Fatalf("duplicate %d got its own job %s, want coalesce onto %s", i, res.status.ID, first.status.ID)
		}
	}
	release()
	waitDone(t, first.job)

	// A terminal job must already have left the coalescing index, or an
	// identical submission could attach to its settled outcome.
	srv.mu.Lock()
	_, still := srv.inflight[first.job.key]
	srv.mu.Unlock()
	if still {
		t.Fatalf("job %s is terminal but still in the coalescing index", first.job.id)
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("coalesced submissions executed %d times, want exactly 1", n)
	}
	if n := srv.met.coalesced.Load(); n != dups {
		t.Fatalf("coalesced counter = %d, want %d", n, dups)
	}
	st := first.job.status()
	if st.State != StateDone || st.Coalesced != dups {
		t.Fatalf("job status = %+v, want done with %d coalesced", st, dups)
	}

	// Identical submission after completion: served from cache, still one
	// execution, and the report bytes are the stored ones.
	res, err := srv.submit(spec)
	if err != nil {
		t.Fatalf("post-completion submit: %v", err)
	}
	if !res.status.CacheHit || res.status.State != StateDone {
		t.Fatalf("post-completion submission = %+v, want immediate cache hit", res.status)
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("cache hit re-executed: %d executions", n)
	}
}

// TestBackpressure: a full queue rejects with errQueueFull instead of
// blocking or growing without bound.
func TestBackpressure(t *testing.T) {
	srv, execs, release := blockableServer(t, Config{JobWorkers: 1, QueueCap: 1, SimWorkers: 1})

	running := mustNormalize(t, JobSpec{Kind: KindDifftest, Seeds: 1})
	if _, err := srv.submit(running); err != nil {
		t.Fatalf("submit running: %v", err)
	}
	for execs.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	queued := mustNormalize(t, JobSpec{Kind: KindDifftest, Seeds: 2})
	if _, err := srv.submit(queued); err != nil {
		t.Fatalf("submit queued: %v", err)
	}
	rejected := mustNormalize(t, JobSpec{Kind: KindDifftest, Seeds: 3})
	if _, err := srv.submit(rejected); !errors.Is(err, errQueueFull) {
		t.Fatalf("third submission error = %v, want errQueueFull", err)
	}
	if n := srv.met.rejected.Load(); n != 1 {
		t.Fatalf("rejected counter = %d, want 1", n)
	}
	release()
}

// TestCancelQueued: DELETE-ing a queued job finalizes it immediately and
// the worker skips it when it reaches the front of the queue.
func TestCancelQueued(t *testing.T) {
	srv, execs, release := blockableServer(t, Config{JobWorkers: 1, QueueCap: 4, SimWorkers: 1})

	blocker := mustNormalize(t, JobSpec{Kind: KindDifftest, Seeds: 1})
	if _, err := srv.submit(blocker); err != nil {
		t.Fatalf("submit blocker: %v", err)
	}
	for execs.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	victim, err := srv.submit(mustNormalize(t, JobSpec{Kind: KindDifftest, Seeds: 2}))
	if err != nil {
		t.Fatalf("submit victim: %v", err)
	}
	if !srv.cancelJob(victim.job) {
		t.Fatal("cancelJob refused a queued job")
	}
	waitDone(t, victim.job)
	if st := victim.job.status(); st.State != StateCanceled {
		t.Fatalf("victim state = %s, want canceled", st.State)
	}
	release()
	// The worker must skip the canceled job without executing it.
	deadline := time.Now().Add(5 * time.Second)
	for srv.met.running.Load() != 0 || srv.queue.len() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("queue did not drain after cancel")
		}
		time.Sleep(time.Millisecond)
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("canceled job executed (execs = %d)", n)
	}
}

// TestCancelIfSolo: the ?wait=1 disconnect path cancels a job only when no
// other submission has a stake in it, and a cancelled solo job releases its
// coalescing slot so a later identical submission starts fresh instead of
// attaching to the corpse.
func TestCancelIfSolo(t *testing.T) {
	srv, execs, release := blockableServer(t, Config{JobWorkers: 1, QueueCap: 4, SimWorkers: 1})

	// Running job with a coalesced duplicate: cancelIfSolo must be a no-op.
	shared := mustNormalize(t, JobSpec{Kind: KindDifftest, Seeds: 1})
	first, err := srv.submit(shared)
	if err != nil {
		t.Fatalf("submit shared: %v", err)
	}
	for execs.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	if res, err := srv.submit(shared); err != nil || res.job != first.job {
		t.Fatalf("duplicate did not coalesce: res=%+v err=%v", res, err)
	}
	srv.cancelIfSolo(first.job)
	if st := first.job.status(); isTerminal(st.State) {
		t.Fatalf("cancelIfSolo killed a coalesced job (state %s)", st.State)
	}

	// Queued solo job: cancelIfSolo cancels it and frees the inflight key.
	solo := mustNormalize(t, JobSpec{Kind: KindDifftest, Seeds: 2})
	victim, err := srv.submit(solo)
	if err != nil {
		t.Fatalf("submit solo: %v", err)
	}
	srv.cancelIfSolo(victim.job)
	waitDone(t, victim.job)
	if st := victim.job.status(); st.State != StateCanceled {
		t.Fatalf("solo job state = %s, want canceled", st.State)
	}
	resub, err := srv.submit(solo)
	if err != nil {
		t.Fatalf("resubmit after cancel: %v", err)
	}
	if resub.job == victim.job {
		t.Fatal("resubmission coalesced onto the cancelled job")
	}

	release()
	waitDone(t, first.job)
	if st := first.job.status(); st.State != StateDone {
		t.Fatalf("shared job finished as %s, want done", st.State)
	}
	waitDone(t, resub.job)
}

// TestDrain: draining stops new submissions, finishes in-flight work, and
// leaves Drain idempotent-safe.
func TestDrain(t *testing.T) {
	srv := mustNew(t, Config{JobWorkers: 1, SimWorkers: 1})
	spec := mustNormalize(t, JobSpec{Kind: KindDifftest, Seeds: 1})
	res, err := srv.submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	waitDone(t, res.job)
	if st := res.job.status(); st.State != StateDone {
		t.Fatalf("in-flight job finished as %s, want done (drain must not kill it)", st.State)
	}
	if _, err := srv.submit(spec); !errors.Is(err, errDraining) {
		t.Fatalf("post-drain submit error = %v, want errDraining", err)
	}
	if err := srv.Drain(ctx); err == nil {
		t.Fatal("second Drain reported success, want already-draining error")
	}
}
