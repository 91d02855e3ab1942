// Service counters, rendered in Prometheus text exposition format on
// GET /metrics. Everything is an atomic so the hot submission path never
// takes a metrics lock.
package server

import (
	"fmt"
	"io"
	"sync/atomic"

	"github.com/amnesiac-sim/amnesiac/internal/buildinfo"
	"github.com/amnesiac-sim/amnesiac/internal/cluster"
	"github.com/amnesiac-sim/amnesiac/internal/harness"
	"github.com/amnesiac-sim/amnesiac/internal/store"
	"github.com/amnesiac-sim/amnesiac/internal/trace"
)

type metrics struct {
	submitted atomic.Uint64 // accepted submissions (incl. cache hits + coalesced)
	rejected  atomic.Uint64 // 429 backpressure rejections
	coalesced atomic.Uint64 // submissions attached to an in-flight identical job
	completed atomic.Uint64 // jobs finishing in state done
	failed    atomic.Uint64
	timeouts  atomic.Uint64
	canceled  atomic.Uint64
	proxied   atomic.Uint64 // submissions forwarded to their key's ring owner
	running   atomic.Int64  // gauge

	// Trace-engine activity aggregated over every amnesic simulation the
	// suite jobs on this replica executed (see trace.Stats).
	tracesBuilt         atomic.Uint64
	tracesBlacklisted   atomic.Uint64
	traceReplays        atomic.Uint64
	traceReplayedInstrs atomic.Uint64
	traceTotalInstrs    atomic.Uint64
}

// observeTrace folds one finished job's trace-engine aggregate into the
// service counters.
func (m *metrics) observeTrace(s trace.Stats) {
	m.tracesBuilt.Add(s.Built)
	m.tracesBlacklisted.Add(s.Blacklisted)
	m.traceReplays.Add(s.Replays)
	m.traceReplayedInstrs.Add(s.ReplayedInstrs)
	m.traceTotalInstrs.Add(s.TotalInstrs)
}

// write renders the counters plus cache, store, cluster, and queue gauges.
func (m *metrics) write(w io.Writer, cs CacheStats, ps harness.CacheStats, ss store.Stats, cls cluster.Stats, queueDepth, queueCap int, draining bool) {
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP amnesiacd_%s %s\n# TYPE amnesiacd_%s counter\namnesiacd_%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP amnesiacd_%s %s\n# TYPE amnesiacd_%s gauge\namnesiacd_%s %d\n", name, help, name, name, v)
	}
	counter("jobs_submitted_total", "accepted job submissions", m.submitted.Load())
	counter("jobs_rejected_total", "submissions rejected by queue backpressure", m.rejected.Load())
	counter("jobs_coalesced_total", "submissions coalesced onto an in-flight identical job", m.coalesced.Load())
	counter("jobs_completed_total", "jobs finished successfully", m.completed.Load())
	counter("jobs_failed_total", "jobs finished with an execution error", m.failed.Load())
	counter("jobs_timeout_total", "jobs that hit their deadline", m.timeouts.Load())
	counter("jobs_canceled_total", "jobs canceled by clients or shutdown", m.canceled.Load())
	counter("result_cache_hits_total", "report cache hits", cs.Hits)
	counter("result_cache_misses_total", "report cache misses", cs.Misses)
	counter("result_cache_evictions_total", "report cache LRU evictions", cs.Evictions)
	gauge("result_cache_entries", "reports currently cached", int64(cs.Entries))
	counter("store_hits_total", "durable store hits (reports served from disk)", ss.Hits)
	counter("store_misses_total", "durable store misses", ss.Misses)
	counter("store_evictions_total", "durable store size-bound evictions", ss.Evictions)
	counter("store_quarantined_total", "corrupt store entries renamed aside", ss.Quarantined)
	gauge("store_bytes", "bytes currently held by the durable store", ss.Bytes)
	gauge("store_entries", "reports currently in the durable store", int64(ss.Entries))
	counter("prepared_image_hits_total", "workload lookups that found the prepared image resident or building", ps.Hits)
	counter("prepared_image_misses_total", "workload lookups that built the prepared image", ps.Misses)
	gauge("prepared_images", "sealed prepared images currently resident", int64(ps.Resident))
	counter("traces_built_total", "superblock traces recorded by amnesic simulations", m.tracesBuilt.Load())
	counter("traces_blacklisted_total", "trace heads tombstoned as unrecordable", m.tracesBlacklisted.Load())
	counter("trace_replays_total", "trace replay activations", m.traceReplays.Load())
	counter("trace_replayed_instrs_total", "instructions retired through trace replay", m.traceReplayedInstrs.Load())
	counter("trace_instrs_total", "instructions retired by traced amnesic simulations", m.traceTotalInstrs.Load())
	cov := trace.Stats{ReplayedInstrs: m.traceReplayedInstrs.Load(), TotalInstrs: m.traceTotalInstrs.Load()}.Coverage()
	fmt.Fprintf(w, "# HELP amnesiacd_trace_replay_coverage_pct replayed instructions as %% of all amnesic-simulation instructions\n# TYPE amnesiacd_trace_replay_coverage_pct gauge\namnesiacd_trace_replay_coverage_pct %g\n", cov)
	counter("peer_proxied_jobs_total", "submissions proxied to their key's ring owner", m.proxied.Load())
	gauge("peer_unhealthy", "peer replicas currently in failure backoff", int64(cls.Unhealthy))
	gauge("cluster_peers", "configured peer replicas", int64(cls.Peers))
	gauge("jobs_running", "jobs currently executing", m.running.Load())
	gauge("queue_depth", "jobs waiting in the queue", int64(queueDepth))
	gauge("queue_capacity", "queue capacity", int64(queueCap))
	d := int64(0)
	if draining {
		d = 1
	}
	gauge("draining", "1 while the server is draining for shutdown", d)
	fmt.Fprintf(w, "# HELP amnesiacd_build_info build identity\n# TYPE amnesiacd_build_info gauge\namnesiacd_build_info{version=%q,revision=%q} 1\n",
		buildinfo.Version, buildinfo.Revision())
}
