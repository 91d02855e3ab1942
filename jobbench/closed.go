package main

// The closed-loop workloads, cold-suite and warm-sweep: one client runs
// jobs back to back through the harness entry points, each job's output
// checked by the gate.

import (
	"context"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"sync"
	"time"

	"github.com/amnesiac-sim/amnesiac/internal/harness"
	"github.com/amnesiac-sim/amnesiac/internal/server"
	"github.com/amnesiac-sim/amnesiac/internal/workloads"
)

const (
	closedScale = 0.3
	// warmMaxR is the break-even sweep bound of warm-sweep jobs.
	warmMaxR = 200
	// warmupKernel is the kernel of cold-suite's set-up job.
	warmupKernel = "bfs"
)

// nominalRound is how long one round of a closed-loop workload takes, net
// of steal, on a 2-vCPU x86-64 guest at the seed commit. A run measures
// seconds/nominalRound whole rounds, so that every run, on any commit,
// runs the same jobs and reports its percentiles over the same count.
var nominalRound = map[string]time.Duration{
	"cold-suite": 10 * time.Second,
	"warm-sweep": 3500 * time.Millisecond,
}

// closedRounds is the number of rounds a run of budget measures.
func closedRounds(workload string, budget time.Duration) int {
	return max(1, int(math.Round(float64(budget)/float64(nominalRound[workload]))))
}

// closedConfig is the harness configuration of every closed-loop job:
// evaluation defaults at closedScale, one harness worker per CPU. One
// value is shared by set-up and jobs, because the artifact cache keys on
// the model's identity.
func closedConfig() harness.Config {
	cfg := harness.DefaultConfig()
	cfg.Scale = closedScale
	cfg.Workers = runtime.NumCPU()
	return cfg
}

// closedResult is one job's output: a suite result or a break-even factor.
type closedResult struct {
	suite  *harness.BenchResult
	factor float64
}

func sameResult(a, b closedResult) bool {
	return a.factor == b.factor && reflect.DeepEqual(a.suite, b.suite)
}

// closedRunner runs closed-loop jobs untraced. With cfg.Cache nil (cold
// suite) every job gets a fresh artifact cache.
type closedRunner struct {
	cfg    harness.Config
	byName map[string]*workloads.Workload
	exp    *expected
}

func newClosedRunner(exp *expected) *closedRunner {
	r := &closedRunner{cfg: closedConfig(), byName: map[string]*workloads.Workload{}, exp: exp}
	for _, w := range workloads.Responsive() {
		r.byName[w.Name] = w
	}
	return r
}

func (r *closedRunner) run(ctx context.Context, j closedJob) (closedResult, error) {
	cfg := r.cfg
	if cfg.Cache == nil {
		cfg.Cache = harness.NewArtifactCache()
	}
	w := r.byName[j.Kernel]
	if j.Kind == server.KindBreakEven {
		f, err := harness.BreakEvenContext(ctx, cfg, w, warmMaxR)
		return closedResult{factor: f}, err
	}
	res, err := harness.RunSuiteContext(ctx, cfg, []*workloads.Workload{w})
	if err != nil {
		return closedResult{}, err
	}
	return closedResult{suite: res[0]}, nil
}

func (r *closedRunner) check(j closedJob, res closedResult) error {
	if j.Kind == server.KindBreakEven {
		return r.exp.checkBreakEven(j.Kernel, closedScale, warmMaxR, res.factor)
	}
	return r.exp.checkSuite(j.Kernel, closedScale, harness.PolicyLabels, suiteRecOf(res.suite), true)
}

// setup prepares the runner for a workload and returns the interval it
// took. warm-sweep prepares every kernel into a fresh shared cache, one
// preparation per CPU at a time. cold-suite builds every kernel's program
// and runs one gated cold job, so that lazy runtime set-up is done before
// timing.
func (r *closedRunner) setup(ctx context.Context, workload string) (interval, error) {
	r.cfg.Cache = nil
	runtime.GC()
	start := readMark()
	if workload == "cold-suite" {
		for _, w := range workloads.Responsive() {
			w.Build(closedScale)
		}
		j := closedJob{warmupKernel, server.KindSuite}
		res, err := r.run(ctx, j)
		if err == nil {
			err = r.check(j, res)
		}
		return start.to(readMark()), err
	}
	cache := harness.NewArtifactCache()
	cfg := r.cfg
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	work := make(chan *workloads.Workload)
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for w := range work {
				if _, err := cache.Get(cfg, w); err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
				}
			}
		}()
	}
	for _, w := range workloads.Responsive() {
		work <- w
	}
	close(work)
	wg.Wait()
	r.cfg.Cache = cache
	if len(errs) > 0 {
		return start.to(readMark()), errs[0]
	}
	return start.to(readMark()), nil
}

// closedOutcome is one pass of a closed loop.
type closedOutcome struct {
	jobs    []closedJob
	results []closedResult
	lat     []float64 // seconds per job, net of steal
	rawLat  []float64 // seconds per job, wall
	gap     []float64 // wall seconds from one job's end to the next one's start
	failed  int
	run     interval
}

// closedLoop runs the stream's jobs one after another, rounds whole rounds
// of them. It stops early, after a whole round, once the run has taken
// twice budget of wall time, so that a much slower host still finishes.
func closedLoop(ctx context.Context, r *closedRunner, items []closedJob, seed int64, rounds int, budget time.Duration) closedOutcome {
	var o closedOutcome
	order := newRounds(seed, len(items))
	start := readMark()
	last := start
	for round := 1; round <= rounds; round++ {
		for range items {
			j := items[order.next()]
			m := readMark()
			o.gap = append(o.gap, m.wall.Sub(last.wall).Seconds())
			res, err := r.run(ctx, j)
			last = readMark()
			iv := m.to(last)
			o.lat = append(o.lat, iv.net())
			o.rawLat = append(o.rawLat, iv.wall)
			if err == nil {
				err = r.check(j, res)
			}
			if err != nil {
				o.failed++
				fmt.Fprintf(os.Stderr, "jobbench: job %d (%s %s): %v\n", len(o.jobs), j.Kind, j.Kernel, err)
			}
			o.jobs = append(o.jobs, j)
			o.results = append(o.results, res)
		}
		o.run = start.to(readMark())
		if o.run.wall >= 2*budget.Seconds() {
			break
		}
	}
	return o
}

// tracedLoop repeats an untraced pass's jobs with spans and asserts that
// every traced result deep-equals the untraced one.
func tracedLoop(ctx context.Context, t *tracer, untraced closedOutcome) (lat []float64, failed int) {
	for i, j := range untraced.jobs {
		if err := ctx.Err(); err != nil {
			return lat, failed + len(untraced.jobs) - i
		}
		root := t.rec.start("job", -1, i)
		start := time.Now()
		res, err := t.job(i, root, j)
		t.rec.end(root)
		lat = append(lat, time.Since(start).Seconds())
		if err == nil && !sameResult(res, untraced.results[i]) {
			err = fmt.Errorf("traced result differs from the untraced harness result")
		}
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "jobbench: traced job %d (%s %s): %v\n", i, j.Kind, j.Kernel, err)
		}
	}
	return lat, failed
}
