// Concurrent evaluation scheduler. The paper's evaluation is embarrassingly
// parallel — every benchmark, and every policy within a benchmark, is an
// independent simulation — so the harness fans the (workload × policy) grid
// out as a job DAG over a bounded worker pool:
//
//	prepare(w) ─┬─ policy(w, Oracle)
//	            ├─ policy(w, C-Oracle)
//	            ├─ policy(w, Compiler)
//	            ├─ policy(w, FLC)
//	            └─ policy(w, LLC)
//
// prepare builds the workload, profiles it, runs the classic baseline —
// validating the compiler's slices on the way — and emits both annotated
// binaries; the five policy runs then only read those artifacts. Results
// are written into pre-indexed slots and assembled in workload/policy
// order after the pool drains, so parallel output is byte-identical to
// serial output. All shared inputs (the
// energy.Model, compiler.Annotated binaries, profiles, and the initial
// memory image) are read-only during runs; every simulation clones the
// memory image and builds private caches and machine state.
package harness

import (
	"context"
	"fmt"
	"sync"

	"github.com/amnesiac-sim/amnesiac/internal/compiler"
	"github.com/amnesiac-sim/amnesiac/internal/cpu"
	"github.com/amnesiac-sim/amnesiac/internal/energy"
	"github.com/amnesiac-sim/amnesiac/internal/isa"
	"github.com/amnesiac-sim/amnesiac/internal/mem"
	"github.com/amnesiac-sim/amnesiac/internal/policy"
	"github.com/amnesiac-sim/amnesiac/internal/profile"
	"github.com/amnesiac-sim/amnesiac/internal/workloads"
)

// pool is a bounded worker pool. Jobs may submit further jobs (the DAG's
// policy stage is enqueued by the prepare stage); the queue is sized for
// the whole DAG up front so submission never blocks a worker.
type pool struct {
	ctx  context.Context
	jobs chan func()
	wg   sync.WaitGroup
}

// newPool starts workers goroutines servicing a queue of at most capacity
// jobs. workers must be >= 1. Once ctx is cancelled the workers keep
// draining the queue but stop executing jobs, so wait() returns promptly —
// cancellation granularity is one job (one prepare stage or one policy
// simulation), never mid-queue abandonment that would leak goroutines.
func newPool(ctx context.Context, workers, capacity int) *pool {
	p := &pool{ctx: ctx, jobs: make(chan func(), capacity)}
	for i := 0; i < workers; i++ {
		go func() {
			for job := range p.jobs {
				if ctx.Err() == nil {
					job()
				}
				p.wg.Done()
			}
		}()
	}
	return p
}

// submit enqueues a job. Safe to call from within a running job.
func (p *pool) submit(job func()) {
	p.wg.Add(1)
	p.jobs <- job
}

// wait blocks until every submitted job (including jobs submitted by jobs)
// has finished, then stops the workers. The pool cannot be reused.
func (p *pool) wait() {
	p.wg.Wait()
	close(p.jobs)
}

// errSet collects job failures and deterministically reports the error the
// serial harness would have hit first: the smallest (workload, policy) rank.
type errSet struct {
	mu   sync.Mutex
	rank int
	err  error
}

func (e *errSet) record(rank int, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err == nil || rank < e.rank {
		e.rank, e.err = rank, err
	}
}

func (e *errSet) first() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// Artifacts bundles the per-workload products of the prepare stage. All
// fields are read-only once built: policy runs, break-even sweeps, and
// reports share one Artifacts value across goroutines. Initial is sealed
// inside Image — every simulation executes on a copy-on-write fork of the
// shared image (Image.Fork) rather than a deep clone, so a five-policy
// suite job performs no full-image copies after prepare.
type Artifacts struct {
	Prog *isa.Program
	// Initial is the sealed initial memory (== Image.Mem()): read-only,
	// guaranteed pristine — stores through it panic.
	Initial *mem.Memory
	// Image is the sealed prepared image every run forks from.
	Image   *mem.Image
	Profile *profile.Profile
	// Ann is the probabilistic binary (slice set S); OracleAnn the
	// oracle-mode binary (every valid slice).
	Ann       *compiler.Annotated
	OracleAnn *compiler.Annotated
	Classic   *cpu.Result
}

// artifactKey identifies one prepare-stage product. compiler.Options is a
// flat comparable struct, and the model is keyed by identity: the cache
// relies on Model being read-only during runs (see energy.Model docs).
// maxInstrs is part of the key because the classic baseline bakes
// cfg.MaxInstrs into its result — two configs differing only in the
// instruction budget must not share a baseline.
type artifactKey struct {
	name      string
	scale     float64
	model     *energy.Model
	opts      compiler.Options
	maxInstrs uint64
}

type cacheEntry struct {
	once sync.Once
	art  *Artifacts
	err  error
}

// ArtifactCache memoizes prepare-stage artifacts (profile, compiled
// binaries, classic baseline) across harness entry points, keyed by program
// name, scale, model identity, and compiler options. It is safe for
// concurrent use and deduplicates in-flight builds, so BreakEven's bisection
// and a prior RunSuite share one compile instead of redoing it.
type ArtifactCache struct {
	mu sync.Mutex
	m  map[artifactKey]*cacheEntry
}

// NewArtifactCache returns an empty cache.
func NewArtifactCache() *ArtifactCache {
	return &ArtifactCache{m: make(map[artifactKey]*cacheEntry)}
}

// get returns the artifacts for (cfg, w), building them at most once per
// key even under concurrent callers.
func (c *ArtifactCache) get(cfg Config, w *workloads.Workload) (*Artifacts, error) {
	key := artifactKey{name: w.Name, scale: cfg.Scale, model: cfg.Model, opts: cfg.Opts, maxInstrs: cfg.MaxInstrs}
	c.mu.Lock()
	e := c.m[key]
	if e == nil {
		e = &cacheEntry{}
		c.m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.art, e.err = buildArtifacts(cfg, w) })
	return e.art, e.err
}

// Get returns the (possibly cached) prepared artifacts for (cfg, w) —
// including the sealed memory image runs fork from. The daemon uses it to
// prewarm its prepared-image layer; harness entry points call it
// implicitly through Config.Cache.
func (c *ArtifactCache) Get(cfg Config, w *workloads.Workload) (*Artifacts, error) {
	return c.get(cfg.withDefaults(), w)
}

// Len reports how many prepared entries (by key) the cache holds,
// successes and failures alike.
func (c *ArtifactCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// buildArtifacts runs the prepare stage for one workload in two classic
// passes: build, the fused profile, then the classic baseline — which also
// validates the compiler's candidate slices through the plan's watch — and
// finally the probabilistic and oracle binaries emitted from that one
// validation. Both passes run under cfg.MaxInstrs.
func buildArtifacts(cfg Config, w *workloads.Workload) (*Artifacts, error) {
	prog, initial := w.Build(cfg.Scale)
	prof, err := profile.CollectLimit(cfg.Model, prog, initial, cfg.MaxInstrs)
	if err != nil {
		return nil, fmt.Errorf("harness: %s: %w", w.Name, err)
	}
	plan, err := compiler.NewPlan(cfg.Model, prog, prof, cfg.Opts)
	if err != nil {
		return nil, fmt.Errorf("harness: %s: %w", w.Name, err)
	}
	// Seal the prepared image once; the classic baseline — like every
	// policy run after it — executes on a copy-on-write fork instead of a
	// second deep clone of the initial memory.
	img := initial.Seal()
	cm := img.Fork()
	core := cpu.New(cfg.Model, mem.NewDefaultHierarchy(), cm)
	core.MaxInstrs = cfg.MaxInstrs
	core.Watch = plan.Watch()
	err = core.Run(prog)
	cm.Release()
	if err != nil {
		return nil, fmt.Errorf("harness: %s classic: %w", w.Name, err)
	}
	ann, err := plan.Emit(cfg.Opts.Mode)
	if err != nil {
		return nil, fmt.Errorf("harness: %s: %w", w.Name, err)
	}
	oracleAnn, err := plan.Emit(compiler.ModeOracleAll)
	if err != nil {
		return nil, fmt.Errorf("harness: %s (oracle): %w", w.Name, err)
	}
	return &Artifacts{
		Prog: prog, Initial: img.Mem(), Image: img, Profile: prof,
		Ann: ann, OracleAnn: oracleAnn, Classic: core.Result(prog),
	}, nil
}

// policyBinary maps a policy label to the binary it executes and its
// runtime policy kind (paper §5.1).
func policyBinary(art *Artifacts, label string) (*compiler.Annotated, policy.Kind) {
	switch label {
	case "Oracle":
		return art.OracleAnn, policy.Exact
	case "C-Oracle":
		return art.Ann, policy.Exact
	case "FLC":
		return art.Ann, policy.FLC
	case "LLC":
		return art.Ann, policy.LLC
	default: // "Compiler"
		return art.Ann, policy.Compiler
	}
}
