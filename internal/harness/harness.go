// Package harness orchestrates the paper's evaluation (§4-§5): it profiles
// each benchmark, compiles the amnesic binaries (the compiler's
// probabilistic slice set S and the oracle's set), runs classic and amnesic
// executions under every policy, verifies architectural equivalence, and
// regenerates every table and figure of the paper from the measurements.
package harness

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"

	"github.com/amnesiac-sim/amnesiac/internal/amnesic"
	"github.com/amnesiac-sim/amnesiac/internal/compiler"
	"github.com/amnesiac-sim/amnesiac/internal/cpu"
	"github.com/amnesiac-sim/amnesiac/internal/energy"
	"github.com/amnesiac-sim/amnesiac/internal/mem"
	"github.com/amnesiac-sim/amnesiac/internal/policy"
	"github.com/amnesiac-sim/amnesiac/internal/profile"
	"github.com/amnesiac-sim/amnesiac/internal/stats"
	"github.com/amnesiac-sim/amnesiac/internal/trace"
	"github.com/amnesiac-sim/amnesiac/internal/uarch"
	"github.com/amnesiac-sim/amnesiac/internal/workloads"
)

// PolicyLabels in the paper's reporting order (Fig. 3 legend).
var PolicyLabels = []string{"Oracle", "C-Oracle", "Compiler", "FLC", "LLC"}

// Config parameterizes an evaluation run.
type Config struct {
	// Model is the energy/timing model. It is shared read-only across every
	// simulation the harness schedules (see energy.Model); per-worker
	// mutation must go through Model.Clone, as BreakEven's pricing does.
	Model *energy.Model
	// Scale multiplies workload working sets/iterations (1.0 = full).
	Scale float64
	Opts  compiler.Options
	UArch uarch.Config
	// Verify compares final architectural state against classic execution
	// (always recommended; adds no extra simulation).
	Verify bool
	// Workers bounds the scheduler's concurrent simulation jobs: 0 means
	// runtime.GOMAXPROCS(0), 1 runs strictly serially. Parallel runs are
	// deterministic: results are deep-equal to a Workers=1 run.
	Workers int
	// MaxInstrs bounds the dynamic instruction count of each simulated
	// execution (classic baseline and amnesic runs); 0 means
	// cpu.DefaultMaxInstrs.
	MaxInstrs uint64
	// Policies selects which policy labels RunSuite evaluates per
	// workload; nil or empty means all of PolicyLabels. Entries must come
	// from PolicyLabels. BenchResult.Runs holds exactly these labels, and
	// labels that execute the same binary share one simulation, with one
	// lane per policy kind (see scheduler.go).
	Policies []string
	// Cache, when non-nil, shares prepare-stage artifacts (profiles,
	// compiled binaries, classic baselines) across harness entry points, so
	// e.g. a Table 6 sweep after RunSuite reuses its compiles.
	Cache *ArtifactCache
	// Progress, when non-nil, is invoked once per completed stage: one
	// prepare or one policy label of a suite (a shared simulation reports
	// one unit per label it serves), one workload of a break-even or
	// checkpoint suite. It may be called concurrently from worker
	// goroutines; callers must synchronize. Progress observers must not
	// mutate cfg or the results.
	Progress func(Progress)
	// TraceObs, when non-nil, accumulates trace-engine statistics (traces
	// built/blacklisted, replays, replay coverage) from every amnesic
	// simulation into one aggregate: a pass of several lanes counts once,
	// with the instructions it retired itself (amnesic.Machine.PassInstrs).
	// It is safe for concurrent observation; the server threads a per-job
	// Agg through here for /metrics and job status.
	TraceObs *trace.Agg
}

// Progress reports one completed unit of work. A RunSuite over N
// workloads has N*(1+P) units, where P is the number of selected policies
// (len(cfg.Policies), or len(PolicyLabels) when unset): one "prepare"
// stage plus one stage per selected policy, named by its label, per
// workload. A BreakEvenSuiteContext over N workloads has N "breakeven"
// units and a RunCheckpointSuite N "checkpoint" units, one per workload.
type Progress struct {
	Workload string // benchmark name
	Stage    string // "prepare", a policy label, "breakeven" or "checkpoint"
	Done     int    // units completed so far, including this one
	Total    int    // total units in the suite
	Failed   bool   // this stage returned an error
}

// DefaultConfig returns the evaluation configuration.
func DefaultConfig() Config {
	return Config{
		Model:  energy.Default(),
		Scale:  1.0,
		Opts:   compiler.DefaultOptions(),
		UArch:  uarch.DefaultConfig(),
		Verify: true,
	}
}

// withDefaults normalizes the zero-value conveniences.
func (cfg Config) withDefaults() Config {
	if cfg.Model == nil {
		cfg.Model = energy.Default()
	}
	return cfg
}

// workerCount resolves Workers to a concrete pool size.
func (cfg Config) workerCount() int {
	if cfg.Workers > 0 {
		return cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// cache returns the configured shared cache, or a fresh private one.
func (cfg Config) cache() *ArtifactCache {
	if cfg.Cache != nil {
		return cfg.Cache
	}
	return NewArtifactCache()
}

// policyLabels resolves cfg.Policies to the executed policy grid,
// validating that every entry is a known label.
func (cfg Config) policyLabels() ([]string, error) {
	if len(cfg.Policies) == 0 {
		return PolicyLabels, nil
	}
	for _, p := range cfg.Policies {
		known := false
		for _, l := range PolicyLabels {
			if p == l {
				known = true
				break
			}
		}
		if !known {
			return nil, fmt.Errorf("harness: unknown policy %q (valid: %v)", p, PolicyLabels)
		}
	}
	return cfg.Policies, nil
}

// PolicyRun is one amnesic execution under one policy.
type PolicyRun struct {
	Label string
	Acct  energy.Account
	Stat  amnesic.Stats

	EDPGain    float64 // % EDP reduction vs classic
	EnergyGain float64 // % energy reduction
	TimeGain   float64 // % execution-time reduction

	// Swapped is the memory-access profile (%) of the loads swapped at
	// runtime, weighted by firing counts over the classic per-load
	// distributions — the paper's Table 5 semantics.
	Swapped [energy.NumLevels]float64
	// SwappedCount is the number of dynamic load instances recomputed.
	SwappedCount uint64

	Verified bool
}

// BenchResult bundles everything measured for one benchmark.
type BenchResult struct {
	Workload *workloads.Workload
	Program  string

	Classic *cpu.Result
	Profile *profile.Profile

	// Ann is the probabilistic binary (slice set S); OracleAnn the
	// oracle-mode binary (every valid slice). They are one binary when the
	// compiler cost-rejected no valid slice.
	Ann       *compiler.Annotated
	OracleAnn *compiler.Annotated

	// Runs indexed by the executed policy labels (cfg.Policies, or all of
	// PolicyLabels when unset).
	Runs map[string]*PolicyRun
}

// Run evaluates one benchmark end to end, fanning the policy runs out over
// the scheduler's worker pool.
func Run(cfg Config, w *workloads.Workload) (*BenchResult, error) {
	res, err := RunSuite(cfg, []*workloads.Workload{w})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// RunPolicy executes one amnesic configuration and computes its gains. The
// run executes on a copy-on-write fork of the sealed prepared image — no
// deep copy of the initial memory is made — and releases the fork before
// returning.
func RunPolicy(cfg Config, binary *compiler.Annotated, img *mem.Image, classic *cpu.Result, prof *profile.Profile, k policy.Kind, label string) (*PolicyRun, error) {
	runs, err := runLanes(cfg, binary, img, classic, prof, []policy.Kind{k})
	if err != nil {
		return nil, err
	}
	runs[0].Label = label
	return runs[0], nil
}

// runLanes executes the binary once with one lane per policy kind (see
// amnesic.NewLanes) and returns each lane's run, unlabelled, in kind order.
// The trace aggregate observes the one pass.
func runLanes(cfg Config, binary *compiler.Annotated, img *mem.Image, classic *cpu.Result, prof *profile.Profile, kinds []policy.Kind) ([]*PolicyRun, error) {
	fm := img.Fork()
	defer fm.Release()
	pols := make([]policy.Policy, len(kinds))
	for i, k := range kinds {
		pols[i] = policy.New(k)
	}
	machine, err := amnesic.NewLanes(cfg.Model, binary, fm, pols, cfg.UArch)
	if err != nil {
		return nil, err
	}
	machine.MaxInstrs = cfg.MaxInstrs
	if err := machine.Run(); err != nil {
		return nil, err
	}
	if cfg.Verify && machine.Regs != classic.Regs {
		return nil, fmt.Errorf("architectural state diverges from classic execution")
	}
	if cfg.TraceObs != nil {
		cfg.TraceObs.Observe(machine.Engine, machine.PassInstrs())
	}
	runs := make([]*PolicyRun, len(kinds))
	for i, l := range machine.Lanes {
		run := &PolicyRun{Acct: l.Acct, Stat: l.Stat, Verified: cfg.Verify}
		run.EDPGain = stats.Gain(classic.Acct.EDP(), l.Acct.EDP())
		run.EnergyGain = stats.Gain(classic.Acct.EnergyNJ, l.Acct.EnergyNJ)
		run.TimeGain = stats.Gain(classic.Acct.TimeNS, l.Acct.TimeNS)
		run.Swapped, run.SwappedCount = swappedProfile(binary, prof, l.Stat)
		runs[i] = run
	}
	return runs, nil
}

// swappedProfile computes the paper's Table 5 rows: the classic-execution
// service-level distribution of the dynamic load instances this policy
// swapped, approximated by weighting each slice's classic per-load profile
// with its firing count.
func swappedProfile(binary *compiler.Annotated, prof *profile.Profile, st amnesic.Stats) ([energy.NumLevels]float64, uint64) {
	var acc [energy.NumLevels]float64
	var total float64
	var count uint64
	for _, si := range binary.Slices {
		fires := st.SliceRecomputes[si.ID]
		if fires == 0 {
			continue
		}
		li := prof.Loads[si.LoadPC]
		if li == nil || li.Count == 0 {
			continue
		}
		for l := energy.L1; l < energy.NumLevels; l++ {
			acc[l] += float64(fires) * li.PrLevel(l)
		}
		total += float64(fires)
		count += fires
	}
	if total > 0 {
		for l := range acc {
			acc[l] = 100 * acc[l] / total
		}
	}
	return acc, count
}

// RunSuite evaluates the given workloads, returning results in workload
// order. See RunSuiteContext.
func RunSuite(cfg Config, ws []*workloads.Workload) ([]*BenchResult, error) {
	return RunSuiteContext(context.Background(), cfg, ws)
}

// RunSuiteContext evaluates the given workloads, returning results in
// workload order. The (workload × policy) grid — cfg.Policies, or all of
// PolicyLabels when unset — runs as a job DAG over a bounded worker pool
// of cfg.Workers goroutines (see scheduler.go). Labels that execute the
// same binary share one simulation with one lane per policy kind: on a
// responsive kernel all five do, since the compiler keeps every valid
// slice (see compiler.Plan.Emit), and each label gets its own copy of its
// lane's run. Result assembly is order-preserving, so the output is
// deep-equal — and renders byte-identical reports — regardless of worker
// count. On failure the error reported is the one a serial run would have
// hit first: a failed pass of several lanes reruns each lane alone, and a
// failed lane fails every label it serves.
//
// Cancelling ctx stops the run at job granularity: in-flight simulations
// finish, queued ones are dropped, the pool drains (no goroutine leak), and
// ctx.Err() is returned. cfg.Progress observers see only completed stages.
func RunSuiteContext(ctx context.Context, cfg Config, ws []*workloads.Workload) ([]*BenchResult, error) {
	cfg = cfg.withDefaults()
	cache := cfg.cache()
	labels, err := cfg.policyLabels()
	if err != nil {
		return nil, err
	}

	results := make([]*BenchResult, len(ws))
	// runs[i][j] is workload i under labels[j]; each cell is written by
	// exactly one job, so assembly below needs no locking.
	runs := make([][]*PolicyRun, len(ws))
	var errs errSet
	rank := func(wIdx, pIdx int) int { return wIdx*(len(labels)+1) + pIdx + 1 }

	total := len(ws) * (1 + len(labels))
	var done atomic.Int64
	report := func(w, stage string, failed bool) {
		n := int(done.Add(1))
		if cfg.Progress != nil {
			cfg.Progress(Progress{Workload: w, Stage: stage, Done: n, Total: total, Failed: failed})
		}
	}

	p := newPool(ctx, cfg.workerCount(), total)
	for i, w := range ws {
		runs[i] = make([]*PolicyRun, len(labels))
		p.submit(func() {
			art, err := cache.get(cfg, w)
			if err != nil {
				errs.record(rank(i, -1), err)
				report(w.Name, "prepare", true)
				return
			}
			results[i] = &BenchResult{
				Workload: w, Program: art.Prog.Name,
				Classic: art.Classic, Profile: art.Profile,
				Ann: art.Ann, OracleAnn: art.OracleAnn,
			}
			report(w.Name, "prepare", false)
			for _, sim := range simulations(art, labels) {
				p.submit(func() {
					laneRuns, laneErrs := sim.run(ctx, cfg, art)
					for l, lane := range sim.lanes {
						run, err := laneRuns[l], laneErrs[l]
						for n, j := range lane.labels {
							label := labels[j]
							if err != nil {
								errs.record(rank(i, j), fmt.Errorf("harness: %s/%s: %w", w.Name, label, err))
								report(w.Name, label, true)
								continue
							}
							if n > 0 {
								run = run.relabel(label)
							}
							run.Label = label
							runs[i][j] = run
							report(w.Name, label, false)
						}
					}
				})
			}
		})
	}
	p.wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("harness: suite cancelled: %w", err)
	}
	if err := errs.first(); err != nil {
		return nil, err
	}
	for i, r := range results {
		r.Runs = make(map[string]*PolicyRun, len(labels))
		for j, label := range labels {
			r.Runs[label] = runs[i][j]
		}
	}
	return results, nil
}

// relabel returns a copy of run under label, with its own
// Stat.SliceRecomputes backing array, so labels that share one simulation
// share no mutable state.
func (run *PolicyRun) relabel(label string) *PolicyRun {
	cp := *run
	cp.Label = label
	cp.Stat.SliceRecomputes = slices.Clone(run.Stat.SliceRecomputes)
	return &cp
}

// BreakEven computes the paper's Table 6: the factor by which R (the
// relative energy cost of non-memory instructions vs loads, §5.5) must grow
// over Rdefault before amnesic execution under C-Oracle stops improving
// EDP. The C-Oracle's firing decisions stay frozen at the default R, so the
// EDP curves genuinely cross. RScale only scales the compute EPIs, so
// neither execution's event counts depend on the factor: the sweep takes
// the classic account from the shared ArtifactCache, simulates C-Oracle
// once under cfg.Model, and bisects by pricing copies of the two accounts
// at each probed factor.
func BreakEven(cfg Config, w *workloads.Workload, maxFactor float64) (float64, error) {
	return BreakEvenContext(context.Background(), cfg, w, maxFactor)
}

// BreakEvenSuiteContext computes BreakEvenContext for every workload,
// sweeping cfg.Workers workloads at a time, and returns the factors in
// workload order. On failure it returns the lowest-index workload's error,
// or ctx's error once ctx is cancelled.
func BreakEvenSuiteContext(ctx context.Context, cfg Config, ws []*workloads.Workload, maxFactor float64) ([]float64, error) {
	factors := make([]float64, len(ws))
	err := eachWorkload(ctx, cfg, ws, "breakeven", func(i int, w *workloads.Workload) (err error) {
		factors[i], err = BreakEvenContext(ctx, cfg, w, maxFactor)
		return err
	})
	if err != nil {
		return nil, err
	}
	return factors, nil
}

// BreakEvenContext is BreakEven with cancellation: the sweep checks ctx
// before its C-Oracle simulation and stops with ctx.Err() once cancelled.
func BreakEvenContext(ctx context.Context, cfg Config, w *workloads.Workload, maxFactor float64) (float64, error) {
	cfg = cfg.withDefaults()
	art, err := cfg.cache().get(cfg, w)
	if err != nil {
		return 0, err
	}
	if len(art.Ann.Slices) == 0 {
		return 0, fmt.Errorf("harness: %s: no slices to sweep", w.Name)
	}
	if err := ctx.Err(); err != nil {
		return 0, fmt.Errorf("harness: break-even sweep cancelled: %w", err)
	}
	fm := art.Image.Fork()
	defer fm.Release()
	machine, err := amnesic.New(cfg.Model, art.Ann, fm, policy.New(policy.Exact), cfg.UArch)
	if err != nil {
		return 0, err
	}
	machine.MaxInstrs = cfg.MaxInstrs
	if err := machine.Run(); err != nil {
		return 0, err
	}

	m := cfg.Model.Clone()
	classic, amn := art.Classic.Acct, machine.Acct
	gainAt := func(factor float64) float64 {
		m.RScale = factor
		classic.Price(m)
		amn.Price(m)
		return stats.Gain(classic.EDP(), amn.EDP())
	}
	lo, hi := 1.0, maxFactor
	if gainAt(lo) <= 0 {
		return 1, nil
	}
	if gainAt(hi) > 0 {
		return hi, nil // still profitable at the sweep bound
	}
	for i := 0; i < 18 && hi-lo > 0.01*lo; i++ {
		mid := (lo + hi) / 2
		if gainAt(mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}
