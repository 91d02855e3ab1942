// Command jobbench is the repository's job-level benchmark. It runs one
// seeded workload through the program's real entry points — the harness
// (RunSuiteContext, BreakEvenContext, ArtifactCache.Get) for cold-suite
// and warm-sweep, an in-process amnesiacd's HTTP API for serve-mix —
// checks every job's output, and prints every metric by name and unit.
// The last line of standard output is one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced.
// With -trace 1 the run measures half its time untraced, repeats the same
// jobs with a span around each call into a layer, and reports the
// per-layer metrics; the spans are written to
// .bench_build/spans/<workload>-seed<seed>.jsonl.
//
// Usage:
//
//	jobbench -workload cold-suite|warm-sweep|serve-mix -seed N -seconds S -trace 0|1
//	jobbench -record expected.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/amnesiac-sim/amnesiac/internal/buildinfo"
)

// setupRepeats is how many times a trace-0 run sets up; setup_s is the
// median. cold-suite's set-up is one short job, so it repeats more.
var setupRepeats = map[string]int{"cold-suite": 5, "warm-sweep": 3, "serve-mix": 3}

// jobLimit lists the workloads with the latency limit of their goodput.
var jobLimit = map[string]time.Duration{
	"cold-suite": 5 * time.Second,
	"warm-sweep": 2500 * time.Millisecond,
	"serve-mix":  serveLimit,
}

// def declares one metric as BENCHMARK.json lists it.
type def struct{ name, unit, better string }

var endToEndDefs = []def{
	{"setup_s", "s", "lower"},
	{"job_p50_s", "s", "lower"},
	{"job_tail_s", "s", "lower"},
	{"jobs_per_s", "1/s", "higher"},
	{"goodput_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// shareLayers are the layers whose self-time share is reported.
var shareLayers = []string{"harness", "workloads", "profile", "compiler", "cpu", "amnesic", "mem", "server"}

var perLayerDefs = func() []def {
	d := []def{
		{"harness.prepare_s", "s", "lower"},
		{"harness.policy_stage_s", "s", "lower"},
		{"harness.breakeven_s", "s", "lower"},
		{"harness.policy_parallel_frac", "frac", "higher"},
		{"workloads.build_s", "s", "lower"},
		{"profile.busy_s", "s", "lower"},
		{"profile.instrs", "count", "lower"},
		{"profile.mips", "MIPS", "higher"},
		{"compiler.busy_s", "s", "lower"},
		{"compiler.calls", "count", "lower"},
		{"compiler.candidates", "count", "lower"},
		{"compiler.valid_frac", "frac", "higher"},
		{"compiler.replay_instrs", "count", "lower"},
		{"compiler.mips", "MIPS", "higher"},
		{"cpu.busy_s", "s", "lower"},
		{"cpu.instrs", "count", "lower"},
		{"cpu.mips", "MIPS", "higher"},
		{"cpu.trace_coverage", "frac", "higher"},
		{"amnesic.new_s", "s", "lower"},
		{"amnesic.busy_s", "s", "lower"},
		{"amnesic.instrs", "count", "lower"},
		{"amnesic.mips", "MIPS", "higher"},
		{"amnesic.rcmp_fire_frac", "frac", "higher"},
		{"amnesic.trace_coverage", "frac", "higher"},
		{"amnesic.trace_invalidations", "count", "lower"},
		{"mem.seal_s", "s", "lower"},
		{"mem.fork_s", "s", "lower"},
		{"mem.cow_bytes", "bytes", "lower"},
		{"server.submit_s", "s", "lower"},
		{"server.report_s", "s", "lower"},
		{"server.queue_wait_s", "s", "lower"},
		{"server.run_s", "s", "lower"},
		{"server.run_s.suite", "s", "lower"},
		{"server.run_s.breakeven", "s", "lower"},
		{"server.run_s.checkpoint", "s", "lower"},
		{"server.run_s.difftest", "s", "lower"},
		{"server.hit_frac", "frac", "higher"},
		{"server.coalesced_frac", "frac", "higher"},
		{"server.rejected", "count", "lower"},
		{"difftest.seed_s", "s", "lower"},
		{"store.bytes", "bytes", "lower"},
		{"store.entries", "count", "lower"},
		{"bench.gen_late_s", "s", "lower"},
		{"bench.trace_overhead", "ratio", "lower"},
		{"bench.span_coverage", "frac", "higher"},
	}
	for _, l := range shareLayers {
		d = append(d, def{l + ".self_share", "frac", "lower"})
	}
	return d
}()

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	spans    string
}

// report is what one run prints: the metrics of its mode, the counts for
// the JSON line, and the notes that explain them.
type report struct {
	attempted, failed int
	values            map[string]float64
	samples           map[string]string // per metric: sample count and tail percentile
	notes             []string
}

func newReport() *report {
	return &report{values: map[string]float64{}, samples: map[string]string{}}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	var o options
	var record string
	fs := flag.NewFlagSet("jobbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "cold-suite, warm-sweep or serve-mix")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the job stream")
	fs.IntVar(&o.seconds, "seconds", 20, "measurement time in seconds; closed loops run that many seconds of nominal rounds")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced repeat")
	fs.StringVar(&record, "record", "", "record the gate's expected values into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if record != "" {
		if err := recordExpected(record); err != nil {
			fmt.Fprintln(os.Stderr, "jobbench:", err)
			return 1
		}
		return 0
	}
	if _, ok := jobLimit[o.workload]; !ok || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "jobbench: need -workload cold-suite|warm-sweep|serve-mix, -seconds >= 1, -trace 0|1")
		return 2
	}
	o.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	exp, err := loadExpected()
	if err != nil {
		fmt.Fprintln(os.Stderr, "jobbench:", err)
		return 1
	}
	ctx := context.Background()
	var rep *report
	if o.workload == "serve-mix" {
		rep, err = runServe(ctx, o, exp)
	} else {
		rep, err = runClosed(ctx, o, exp)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "jobbench:", err)
		return 1
	}
	if err := rep.print(stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "jobbench:", err)
		return 1
	}
	return 0
}

// runClosed runs cold-suite or warm-sweep.
func runClosed(ctx context.Context, o options, exp *expected) (*report, error) {
	r := newClosedRunner(exp)
	items := closedItems(o.workload)
	budget := time.Duration(o.seconds) * time.Second
	rep := newReport()
	setups := 1
	if o.trace == 0 {
		setups = setupRepeats[o.workload]
	}
	var setupS []interval
	for i := 0; i < setups; i++ {
		d, err := r.setup(ctx, o.workload)
		setupS = append(setupS, d)
		rep.attempted++
		if err != nil {
			rep.failed++
			fmt.Fprintln(os.Stderr, "jobbench: set-up:", err)
		}
	}
	if o.trace == 0 {
		resetPeakRSS()
		out := closedLoop(ctx, r, items, o.seed, closedRounds(o.workload, budget), budget)
		rep.attempted += len(out.jobs)
		rep.failed += out.failed
		rep.endToEnd(o.workload, setupS, out.lat, out.rawLat, out.run, out.run.net())
		return rep, nil
	}

	untraced := closedLoop(ctx, r, items, o.seed, closedRounds(o.workload, budget/2), budget/2)
	t := newTracer(r)
	tlat, tfailed := tracedLoop(ctx, t, untraced)
	rep.attempted += 2 * len(untraced.jobs)
	rep.failed += untraced.failed + tfailed
	a := analyze(t.rec.snapshot())
	if err := t.rec.write(o.spans); err != nil {
		return nil, err
	}
	rep.closedLayers(a, t, untraced, tlat)
	return rep, nil
}

// runServe runs serve-mix.
func runServe(ctx context.Context, o options, exp *expected) (*report, error) {
	root := filepath.Join(".bench_build", "tmp")
	rep := newReport()
	window := time.Duration(o.seconds) * time.Second
	setups := 1
	if o.trace == 1 {
		window /= 2
	} else {
		setups = setupRepeats[o.workload]
	}
	jobs := serveStream(o.seed, window, exp.classicInstrs(serveScale))

	// start sets up a daemon, timed; every set-up but the last is stopped.
	start := func(n int) (*daemon, []interval, error) {
		var d *daemon
		var took []interval
		for i := 0; i < n; i++ {
			if d != nil {
				d.stop()
			}
			runtime.GC()
			m := readMark()
			var err error
			if d, err = startDaemon(root); err != nil {
				return nil, nil, err
			}
			err = d.warm(ctx, exp)
			took = append(took, m.to(readMark()))
			rep.attempted++
			if err != nil {
				rep.failed++
				fmt.Fprintln(os.Stderr, "jobbench: set-up:", err)
			}
		}
		return d, took, nil
	}

	d, setupS, err := start(setups)
	if err != nil {
		return nil, err
	}
	resetPeakRSS()
	untraced := openLoop(ctx, d, jobs, exp, nil)
	d.stop()
	us := summarizeServe(untraced)
	rep.attempted += us.attempted
	rep.failed += us.failed
	if o.trace == 0 {
		// An open loop's throughput follows its arrival schedule, which
		// runs on wall time, so only its latencies are netted of steal.
		rep.endToEnd(o.workload, setupS, us.netLat, us.lat, untraced.run, untraced.elapsed.Seconds())
		rep.notes = append(rep.notes, fmt.Sprintf("serve-mix: %d submissions over %s (%.2f/s offered), %d cache hits, %d coalesced, %d refused",
			len(jobs), window, float64(len(jobs))/window.Seconds(), us.hits, us.coalesced, us.rejected))
		return rep, nil
	}

	d, _, err = start(1)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	traced := openLoop(ctx, d, jobs, exp, rec)
	storeBytes, storeEntries, err := d.storeGauges(ctx)
	d.stop()
	if err != nil {
		return nil, err
	}
	ts := summarizeServe(traced)
	rep.attempted += ts.attempted
	rep.failed += ts.failed + sameReports(untraced, traced)
	if err := rec.write(o.spans); err != nil {
		return nil, err
	}
	rep.serveLayers(analyze(rec.snapshot()), ts, storeBytes, storeEntries, summarize(us.lat).P50)
	return rep, nil
}

// endToEnd fills the end-to-end metrics from an untraced pass: lat and
// rawLat are the job latencies net of steal and in wall time, run the
// pass's interval and secs the time its throughput is taken over.
func (rep *report) endToEnd(workload string, setups []interval, lat, rawLat []float64, run interval, secs float64) {
	s := summarize(lat)
	within := 0
	for _, l := range lat {
		if l <= jobLimit[workload].Seconds() {
			within++
		}
	}
	var setupS []float64
	for _, iv := range setups {
		setupS = append(setupS, iv.net())
	}
	rep.values["setup_s"] = median(setupS)
	rep.values["job_p50_s"] = s.P50
	rep.values["job_tail_s"] = s.Tail
	rep.values["jobs_per_s"] = ratio(float64(len(lat)), secs)
	rep.values["goodput_per_s"] = ratio(float64(within), secs)
	rep.values["peak_rss_mb"] = peakRSSMB()
	rep.samples["setup_s"] = fmt.Sprintf("n=%d, median", len(setupS))
	rep.samples["job_p50_s"] = fmt.Sprintf("n=%d", s.N)
	tail := fmt.Sprintf("n=%d, p%g", s.N, s.TailQ)
	if !s.TailOK {
		tail += fmt.Sprintf(", fewer than %d beyond", minBeyond)
	}
	rep.samples["job_tail_s"] = tail
	rep.samples["jobs_per_s"] = fmt.Sprintf("n=%d over %.3f s", len(lat), secs)
	rep.samples["goodput_per_s"] = fmt.Sprintf("n=%d within %s", within, jobLimit[workload])
	rep.samples["peak_rss_mb"] = "high-water mark over the measured jobs"
	raw := summarize(rawLat)
	rep.notes = append(rep.notes,
		fmt.Sprintf("failed_frac = %d / %d = %.4f (failed, refused, timed-out and incorrect jobs, set-ups included)",
			rep.failed, rep.attempted, ratio(float64(rep.failed), float64(rep.attempted))),
		fmt.Sprintf("times are wall time net of hypervisor steal; %.1f%% of the pass's runnable time was stolen", 100*(1-run.netFactor())),
		fmt.Sprintf("wall time before netting: job p50 %.6f s, tail p%g %.6f s, %d jobs over %.3f s",
			raw.P50, raw.TailQ, raw.Tail, len(rawLat), run.wall))
}

// closedLayers fills the per-layer metrics of a traced closed-loop pass.
func (rep *report) closedLayers(a spanAnalysis, t *tracer, untraced closedOutcome, tracedLat []float64) {
	v, b, n := rep.values, a.Busy, t.n
	per := a.perJob
	mips := func(instrs uint64, busy float64) float64 { return ratio(float64(instrs), busy) / 1e6 }
	cpuT, amnT := t.cpuTrace.Load(), t.amnesicTrace.Load()
	v["harness.prepare_s"] = per(b["harness.prepare"])
	v["harness.policy_stage_s"] = per(b["harness.policy_stage"])
	v["harness.breakeven_s"] = per(b["harness.breakeven"])
	v["harness.policy_parallel_frac"] = ratio(b["harness.policy"], b["harness.policy_stage"]*float64(t.cfg.Workers))
	v["workloads.build_s"] = per(b["workloads.build"])
	v["profile.busy_s"] = per(b["profile.collect"])
	v["profile.instrs"] = per(float64(n.profileInstrs))
	v["profile.mips"] = mips(n.profileInstrs, b["profile.collect"])
	v["compiler.busy_s"] = per(b["compiler.compile"])
	v["compiler.calls"] = per(float64(n.compileCalls))
	v["compiler.candidates"] = per(float64(n.candidates))
	v["compiler.valid_frac"] = ratio(float64(n.valid), float64(n.candidates))
	v["compiler.replay_instrs"] = per(float64(n.replayInstrs))
	v["compiler.mips"] = mips(n.replayInstrs, b["compiler.compile"])
	v["cpu.busy_s"] = per(b["cpu.run"])
	v["cpu.instrs"] = per(float64(n.cpuInstrs))
	v["cpu.mips"] = mips(n.cpuInstrs, b["cpu.run"])
	v["cpu.trace_coverage"] = ratio(float64(cpuT.ReplayedInstrs), float64(cpuT.TotalInstrs))
	v["amnesic.new_s"] = per(b["amnesic.new"])
	v["amnesic.busy_s"] = per(b["amnesic.run"])
	v["amnesic.instrs"] = per(float64(n.amnesicInstrs))
	v["amnesic.mips"] = mips(n.amnesicInstrs, b["amnesic.run"])
	v["amnesic.rcmp_fire_frac"] = ratio(float64(n.rcmpFired), float64(n.rcmpTotal))
	v["amnesic.trace_coverage"] = ratio(float64(amnT.ReplayedInstrs), float64(amnT.TotalInstrs))
	v["amnesic.trace_invalidations"] = per(float64(amnT.Invalidations))
	v["mem.seal_s"] = per(b["mem.seal"])
	v["mem.fork_s"] = per(b["mem.fork"])
	v["mem.cow_bytes"] = per(float64(n.cowBytes))
	// A closed loop has no arrival schedule; its generator is late by the
	// client's own gap between one job's end and the next one's start.
	v["bench.gen_late_s"] = mean(untraced.gap)
	rep.common(a, summarize(untraced.rawLat).P50, summarize(tracedLat).P50)
}

// serveLayers fills the per-layer metrics of a traced serve-mix pass.
func (rep *report) serveLayers(a spanAnalysis, s serveSummary, storeBytes, storeEntries, untracedP50 float64) {
	v := rep.values
	var waits, runs []float64
	var difftestRun float64
	for _, kind := range runKinds {
		var kr []float64
		for _, r := range s.executed[kind] {
			waits = append(waits, r.started.Sub(r.created).Seconds())
			kr = append(kr, r.finished.Sub(r.started).Seconds())
		}
		runs = append(runs, kr...)
		v["server.run_s."+kind] = mean(kr)
		rep.samples["server.run_s."+kind] = fmt.Sprintf("n=%d, mean", len(kr))
		if kind == "difftest" {
			difftestRun = sum(kr)
		}
	}
	v["server.submit_s"] = median(s.submit)
	v["server.report_s"] = median(s.report)
	v["server.queue_wait_s"] = median(waits)
	v["server.run_s"] = median(runs)
	v["server.hit_frac"] = ratio(float64(s.hits), float64(s.attempted))
	v["server.coalesced_frac"] = ratio(float64(s.coalesced), float64(s.attempted))
	v["server.rejected"] = float64(s.rejected)
	v["difftest.seed_s"] = ratio(difftestRun, float64(s.seeds))
	v["store.bytes"] = storeBytes
	v["store.entries"] = storeEntries
	v["bench.gen_late_s"] = maxOf(s.late)
	rep.samples["server.submit_s"] = fmt.Sprintf("n=%d, median", len(s.submit))
	rep.samples["server.report_s"] = fmt.Sprintf("n=%d, median", len(s.report))
	rep.samples["server.queue_wait_s"] = fmt.Sprintf("n=%d executed, median", len(waits))
	rep.samples["server.run_s"] = fmt.Sprintf("n=%d executed, median", len(runs))
	rep.samples["bench.gen_late_s"] = fmt.Sprintf("n=%d, max", len(s.late))
	rep.common(a, untracedP50, summarize(s.lat).P50)
}

// common fills the metrics every traced pass reports.
func (rep *report) common(a spanAnalysis, untracedP50, tracedP50 float64) {
	v := rep.values
	v["bench.trace_overhead"] = ratio(tracedP50, untracedP50)
	v["bench.span_coverage"] = a.coverage()
	for _, l := range shareLayers {
		v[l+".self_share"] = a.selfShare(l)
	}
	rep.notes = append(rep.notes, "traced run: "+a.String())
	layers := make([]string, 0, len(a.Self))
	for l := range a.Self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return a.Self[layers[i]] > a.Self[layers[j]] })
	for _, l := range layers {
		rep.notes = append(rep.notes, fmt.Sprintf("  layer %-10s self %9.4f s  %5.1f%% of self time", l, a.Self[l], 100*a.selfShare(l)))
	}
	for _, d := range perLayerDefs {
		if _, ok := rep.samples[d.name]; !ok {
			rep.samples[d.name] = fmt.Sprintf("%d traced jobs", a.Jobs)
		}
	}
}

// print writes the human-readable report and, last, the JSON line.
func (rep *report) print(w io.Writer, o options) error {
	fmt.Fprintf(w, "jobbench: workload=%s seed=%d seconds=%d trace=%d\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d go=%s commit=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), buildinfo.Revision())
	fmt.Fprintln(w, "note: all times are host time; simulated statistics only gate correctness.")
	fmt.Fprintln(w, "note: the energy/timing model is not validated against hardware, so no accuracy figure is given.")
	fmt.Fprintln(w, "note: the modelled caches start empty in every simulation.")
	defs := endToEndDefs
	if o.trace == 1 {
		defs = perLayerDefs
	}
	out := map[string]any{}
	for _, d := range defs {
		v := rep.values[d.name]
		fmt.Fprintf(w, "%-30s %16.6f %-6s %s\n", d.name, v, d.unit, rep.samples[d.name])
		out[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	for _, n := range rep.notes {
		fmt.Fprintln(w, n)
	}
	line, err := json.Marshal(map[string]any{
		"correct": rep.failed == 0, "attempted": rep.attempted, "failed": rep.failed, "metrics": out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

func maxOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
