// Concurrent evaluation scheduler. The paper's evaluation is embarrassingly
// parallel across benchmarks, so the harness fans the workloads out as a
// job DAG over a bounded worker pool; the policies of one binary share one
// amnesic pass:
//
//	prepare(w) ─┬─ policy(w, Ann: C-Oracle + Oracle, Compiler, FLC, LLC)   one pass, one lane per kind
//	            └─ policy(w, OracleAnn: Oracle)                            only when OracleAnn != Ann
//
// prepare builds the workload, profiles it, runs the classic baseline —
// validating the compiler's slices on the way — and emits both annotated
// binaries; the policy runs then only read those artifacts. There is one
// policy job per binary among the selected labels, which runs every
// distinct policy kind on it as a lane of one amnesic simulation
// (amnesic.NewLanes): a valid slice recomputes the value the load would
// return and the shadow touch gives a recompute the load's cache access,
// so all kinds follow one path over one cache trajectory. Oracle and
// C-Oracle both run the Exact kind, so they share a lane whenever the
// compiler emitted one binary for both modes. A binary amnesic.LaneSafe
// refuses (a body-load slice, as on fe, or dead-store elimination) gets
// one job per kind instead. A binary with no slice (and no dead-store
// elimination) never reaches a policy decision, so every label on it
// shares one lane: a workload that compiles no slice makes one
// simulation, and one whose only slice is cost-rejected makes two
// (Oracle, and one for the four labels on the slice-free probabilistic
// binary). A pass of several lanes that fails is rerun one lane at a
// time, so each label gets the result or error of its own run. Results
// are written into pre-indexed slots and assembled in workload/policy
// order after the pool drains, so parallel output is byte-identical to
// serial output. All shared inputs (the energy.Model, compiler.Annotated
// binaries, profiles, and the sealed initial memory image) are read-only
// during runs; every simulation forks the sealed image copy-on-write and
// builds private caches and machine state. A panic inside a prepare,
// policy or per-workload job becomes that stage's error (see contain), so
// one faulting job cannot take the process down.
package harness

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/amnesiac-sim/amnesiac/internal/amnesic"
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

// contain, deferred by a stage, turns a panic inside it into the stage's
// error: prefix, the panic value and the stack of the faulting goroutine.
// The job then fails like any other failing stage instead of killing the
// process with every other job in it.
func contain(err *error, prefix string) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("%s: panic: %v\n%s", prefix, r, debug.Stack())
	}
}

// simulation is one amnesic pass over a binary: one lane per distinct
// runtime policy kind among the labels it serves.
type simulation struct {
	binary *compiler.Annotated
	lanes  []simLane
}

// simLane is one policy kind of a simulation and the indices of the
// selected labels it serves.
type simLane struct {
	kind   policy.Kind
	labels []int
}

// simulations groups labels by the binary they execute, in label order,
// with one lane per distinct policy kind: runs are deterministic functions
// of the (binary, kind) pair, so labels in one lane get identical results,
// and the lanes of one binary share one pass (amnesic.NewLanes). A binary
// amnesic.LaneSafe refuses — a body-load slice, or dead-store elimination,
// which makes the kind decide whether the run may start at all
// (amnesic.ErrPolicyDSE) — gets one simulation per kind instead. A binary
// with no slices has no RCMP, so its runs never reach a policy decision:
// unless dead-store elimination ran, all its labels share one lane
// whatever their kind.
func simulations(art *Artifacts, labels []string) []*simulation {
	var sims []*simulation
	for j, label := range labels {
		binary, k := policyBinary(art, label)
		anyKind := len(binary.Slices) == 0 && !binary.DeadStoreElim
		var sim *simulation
		for _, s := range sims {
			if s.binary == binary && (amnesic.LaneSafe(binary) || s.lanes[0].kind == k) {
				sim = s
				break
			}
		}
		if sim == nil {
			sim = &simulation{binary: binary}
			sims = append(sims, sim)
		}
		lane := -1
		for i, l := range sim.lanes {
			if l.kind == k || anyKind {
				lane = i
				break
			}
		}
		if lane < 0 {
			lane = len(sim.lanes)
			sim.lanes = append(sim.lanes, simLane{kind: k})
		}
		sim.lanes[lane].labels = append(sim.lanes[lane].labels, j)
	}
	return sims
}

// run executes the simulation and returns each lane's run or error. When a
// pass of several lanes fails, every lane runs again alone, unless ctx is
// cancelled, so each gets exactly the result or error of its own run.
func (s *simulation) run(ctx context.Context, cfg Config, art *Artifacts) ([]*PolicyRun, []error) {
	kinds := make([]policy.Kind, len(s.lanes))
	for i, l := range s.lanes {
		kinds[i] = l.kind
	}
	runs, err := s.pass(cfg, art, kinds)
	errs := make([]error, len(kinds))
	if err == nil {
		return runs, errs
	}
	runs = make([]*PolicyRun, len(kinds))
	for i, k := range kinds {
		if len(kinds) == 1 || ctx.Err() != nil {
			errs[i] = err
			continue
		}
		var one []*PolicyRun
		if one, errs[i] = s.pass(cfg, art, []policy.Kind{k}); errs[i] == nil {
			runs[i] = one[0]
		}
	}
	return runs, errs
}

// pass makes one amnesic pass of the simulation's binary over kinds.
func (s *simulation) pass(cfg Config, art *Artifacts, kinds []policy.Kind) (runs []*PolicyRun, err error) {
	defer contain(&err, "policy run")
	return runLanes(cfg, s.binary, art.Image, art.Classic, art.Profile, kinds)
}

// eachWorkload calls fn for every workload over a pool of
// cfg.workerCount() workers. It returns the error a serial loop would
// have hit first — the lowest-index failure — or, once ctx is cancelled,
// ctx's error. A panic in fn is that workload's error. cfg.Progress sees
// one unit named stage per workload that ran.
func eachWorkload(ctx context.Context, cfg Config, ws []*workloads.Workload, stage string, fn func(i int, w *workloads.Workload) error) error {
	var errs errSet
	var done atomic.Int64
	p := newPool(ctx, cfg.workerCount(), len(ws))
	for i, w := range ws {
		p.submit(func() {
			err := func() (err error) {
				defer contain(&err, "harness: "+w.Name+" "+stage)
				return fn(i, w)
			}()
			if err != nil {
				errs.record(i, err)
			}
			n := int(done.Add(1))
			if cfg.Progress != nil {
				cfg.Progress(Progress{Workload: w.Name, Stage: stage, Done: n, Total: len(ws), Failed: err != nil})
			}
		})
	}
	p.wait()
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("harness: %s cancelled: %w", stage, err)
	}
	return errs.first()
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
	// oracle-mode binary (every valid slice). They are one binary when the
	// compiler cost-rejected no valid slice.
	Ann       *compiler.Annotated
	OracleAnn *compiler.Annotated
	Classic   *cpu.Result
}

// Bytes returns the bytes the artifacts keep resident: the sealed image's
// windows and pages, the profile's tables and written set, the program,
// both binaries with their recipes (once when they are one binary), and
// the classic result. The cache sums it over its resident entries.
func (a *Artifacts) Bytes() int64 {
	b := a.Image.Bytes() + a.Profile.Bytes() + a.Prog.Bytes() + a.Ann.Bytes() + int64(unsafe.Sizeof(*a.Classic))
	if a.OracleAnn != a.Ann {
		b += a.OracleAnn.Bytes()
	}
	return b
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
	once     sync.Once
	art      *Artifacts
	err      error
	resident atomic.Bool // the build finished without error
	bytes    int64       // art.Bytes(), set before resident
}

// ArtifactCache memoizes prepare-stage artifacts (profile, compiled
// binaries, classic baseline) across harness entry points, keyed by program
// name, scale, model identity, and compiler options. It is safe for
// concurrent use and deduplicates in-flight builds, so BreakEven's bisection
// and a prior RunSuite share one compile instead of redoing it. It also
// counts its lookups and knows which entries are resident, which is all the
// daemon reports about its prepared images.
type ArtifactCache struct {
	mu     sync.Mutex
	m      map[artifactKey]*cacheEntry
	hits   uint64 // lookups that found their entry already created
	misses uint64 // lookups that created their entry
}

// NewArtifactCache returns an empty cache.
func NewArtifactCache() *ArtifactCache {
	return &ArtifactCache{m: make(map[artifactKey]*cacheEntry)}
}

// get returns the artifacts for (cfg, w), building them at most once per
// key even under concurrent callers. A build that fails or panics stays
// cached as the entry's error.
func (c *ArtifactCache) get(cfg Config, w *workloads.Workload) (*Artifacts, error) {
	key := artifactKey{name: w.Name, scale: cfg.Scale, model: cfg.Model, opts: cfg.Opts, maxInstrs: cfg.MaxInstrs}
	c.mu.Lock()
	e := c.m[key]
	if e == nil {
		e = &cacheEntry{}
		c.m[key] = e
		c.misses++
	} else {
		c.hits++
	}
	c.mu.Unlock()
	e.once.Do(func() {
		e.art, e.err = buildArtifacts(cfg, w)
		if e.err == nil {
			e.bytes = e.art.Bytes()
			e.resident.Store(true)
		}
	})
	return e.art, e.err
}

// Get returns the (possibly cached) prepared artifacts for (cfg, w) —
// including the sealed memory image runs fork from — and counts the lookup
// as a hit or a miss like the harness entry points' own lookups, which go
// through Config.Cache. The daemon calls it to re-warm its prepared images
// after a restart.
func (c *ArtifactCache) Get(cfg Config, w *workloads.Workload) (*Artifacts, error) {
	return c.get(cfg.withDefaults(), w)
}

// CacheStats is a snapshot of an ArtifactCache.
type CacheStats struct {
	Hits     uint64 // lookups that found their entry already created
	Misses   uint64 // lookups that created their entry, and so built it
	Resident int    // entries whose build finished without error
	Bytes    int64  // Artifacts.Bytes summed over the resident entries
}

// Stats snapshots the lookup counters, the resident entry count and the
// bytes those entries hold.
func (c *ArtifactCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CacheStats{Hits: c.hits, Misses: c.misses}
	for _, e := range c.m {
		if e.resident.Load() {
			st.Resident++
			st.Bytes += e.bytes
		}
	}
	return st
}

// ResidentKey names one resident entry by the workload and the Config
// fields that select its prepare stage.
type ResidentKey struct {
	Workload  string
	Scale     float64
	MaxInstrs uint64
}

// Resident lists the entries whose build finished without error, in no
// particular order.
func (c *ArtifactCache) Resident() []ResidentKey {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []ResidentKey
	for k, e := range c.m {
		if e.resident.Load() {
			out = append(out, ResidentKey{Workload: k.name, Scale: k.scale, MaxInstrs: k.maxInstrs})
		}
	}
	return out
}

// buildArtifacts runs the prepare stage for one workload in two classic
// passes: build, the fused profile, then the classic baseline — which also
// validates the compiler's candidate slices through the plan's watch — and
// finally the probabilistic and oracle binaries emitted from that one
// validation. Both passes run under cfg.MaxInstrs. A panic anywhere in the
// stage is returned as its error.
func buildArtifacts(cfg Config, w *workloads.Workload) (_ *Artifacts, err error) {
	defer contain(&err, "harness: "+w.Name+": prepare")
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
	// policy run and checkpoint engine after it — executes on a
	// copy-on-write fork instead of a second deep clone of the initial
	// memory. The profile's written set sizes each fork's windows once.
	img := initial.Seal(prof.Written...)
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
