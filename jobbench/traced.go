package main

// The traced run of the closed-loop workloads. The harness composes the
// prepare stage (build → profile → compile ×2 → seal → classic baseline),
// the policy stage and the break-even probes internally, so the traced run
// makes the same public calls itself, in the harness's order and with its
// parallelism, and records a span around each. tracedLoop asserts that the
// results deep-equal the untraced harness results, so the split describes
// the same work.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/amnesiac-sim/amnesiac/internal/amnesic"
	"github.com/amnesiac-sim/amnesiac/internal/compiler"
	"github.com/amnesiac-sim/amnesiac/internal/cpu"
	"github.com/amnesiac-sim/amnesiac/internal/energy"
	"github.com/amnesiac-sim/amnesiac/internal/harness"
	"github.com/amnesiac-sim/amnesiac/internal/isa"
	"github.com/amnesiac-sim/amnesiac/internal/mem"
	"github.com/amnesiac-sim/amnesiac/internal/policy"
	"github.com/amnesiac-sim/amnesiac/internal/profile"
	"github.com/amnesiac-sim/amnesiac/internal/server"
	"github.com/amnesiac-sim/amnesiac/internal/stats"
	"github.com/amnesiac-sim/amnesiac/internal/trace"
	"github.com/amnesiac-sim/amnesiac/internal/workloads"
)

// layerCounts are the work counts recorded at the layer boundaries.
type layerCounts struct {
	profileInstrs uint64 // instructions the profiler retired
	compileCalls  uint64
	candidates    uint64 // slices built for validation
	valid         uint64 // slices that passed validation
	replayInstrs  uint64 // classic instructions validation replayed
	cpuInstrs     uint64
	amnesicInstrs uint64
	rcmpFired     uint64
	rcmpTotal     uint64
	cowBytes      uint64 // bytes forks copied on write
}

type tracer struct {
	rec    *recorder
	cfg    harness.Config
	byName map[string]*workloads.Workload

	mu           sync.Mutex
	n            layerCounts
	cpuTrace     trace.Agg
	amnesicTrace trace.Agg
}

func newTracer(r *closedRunner) *tracer {
	return &tracer{rec: newRecorder(), cfg: r.cfg, byName: r.byName}
}

func (t *tracer) count(f func(*layerCounts)) {
	t.mu.Lock()
	f(&t.n)
	t.mu.Unlock()
}

// job runs one closed-loop job under root.
func (t *tracer) job(id, root int, j closedJob) (closedResult, error) {
	w := t.byName[j.Kernel]
	if j.Kind == server.KindBreakEven {
		f, err := t.breakEven(id, root, w, warmMaxR)
		return closedResult{factor: f}, err
	}
	var art *harness.Artifacts
	var err error
	if t.cfg.Cache != nil {
		sp := t.rec.start("harness.prepare", root, id)
		art, err = t.cfg.Cache.Get(t.cfg, w)
		t.rec.end(sp)
	} else {
		art, err = t.prepare(id, root, w)
	}
	if err != nil {
		return closedResult{}, err
	}
	runs, err := t.policyStage(id, root, art, harness.PolicyLabels)
	if err != nil {
		return closedResult{}, err
	}
	return closedResult{suite: &harness.BenchResult{
		Workload: w, Program: art.Prog.Name,
		Classic: art.Classic, Profile: art.Profile,
		Ann: art.Ann, OracleAnn: art.OracleAnn, Runs: runs,
	}}, nil
}

// prepare is the harness's prepare stage, one span per public call.
func (t *tracer) prepare(id, parent int, w *workloads.Workload) (*harness.Artifacts, error) {
	sp := t.rec.start("harness.prepare", parent, id)
	defer t.rec.end(sp)
	cfg := t.cfg

	s := t.rec.start("workloads.build", sp, id)
	prog, initial := w.Build(cfg.Scale)
	t.rec.end(s)

	s = t.rec.start("profile.collect", sp, id)
	prof, err := profile.Collect(cfg.Model, prog, initial)
	t.rec.end(s)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	ann, replays, err := t.compile(id, sp, prog, prof, initial, cfg.Opts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	oracleOpts := cfg.Opts
	oracleOpts.Mode = compiler.ModeOracleAll
	oracleAnn, oracleReplays, err := t.compile(id, sp, prog, prof, initial, oracleOpts)
	if err != nil {
		return nil, fmt.Errorf("%s (oracle): %w", w.Name, err)
	}

	s = t.rec.start("mem.seal", sp, id)
	img := initial.Seal()
	t.rec.end(s)
	classic, err := t.classic(id, sp, cfg.Model, prog, img)
	if err != nil {
		return nil, fmt.Errorf("%s classic: %w", w.Name, err)
	}
	t.count(func(n *layerCounts) {
		n.profileInstrs += classic.Acct.Instrs
		n.replayInstrs += (replays + oracleReplays) * classic.Acct.Instrs
	})
	return &harness.Artifacts{
		Prog: prog, Initial: img.Mem(), Image: img, Profile: prof,
		Ann: ann, OracleAnn: oracleAnn, Classic: classic,
	}, nil
}

// compile calls compiler.Compile and reports whether its validation
// replayed the program (it does when there is at least one candidate).
func (t *tracer) compile(id, parent int, prog *isa.Program, prof *profile.Profile, initial *mem.Memory, opts compiler.Options) (*compiler.Annotated, uint64, error) {
	s := t.rec.start("compiler.compile", parent, id)
	ann, err := compiler.Compile(t.cfg.Model, prog, prof, initial, opts)
	t.rec.end(s)
	if err != nil {
		return nil, 0, err
	}
	cand := uint64(ann.Stats.SlicesBuilt + ann.Stats.RejectedInvalid)
	var replays uint64
	if cand > 0 {
		replays = 1
	}
	t.count(func(n *layerCounts) {
		n.compileCalls++
		n.candidates += cand
		n.valid += uint64(ann.Stats.SlicesBuilt)
	})
	return ann, replays, nil
}

// fork forks img under a mem.fork span; release returns the fork's
// copy-on-write bytes to the counts.
func (t *tracer) fork(id, parent int, img *mem.Image) *mem.Memory {
	s := t.rec.start("mem.fork", parent, id)
	m := img.Fork()
	t.rec.end(s)
	return m
}

func (t *tracer) release(m *mem.Memory) {
	ov := m.Overlay()
	t.count(func(n *layerCounts) { n.cowBytes += 8 * uint64(ov.Words+ov.Pages*4096) })
	m.Release()
}

// classic is cpu.RunProgramLimit on a fork of img, keeping the core so
// its trace engine can be observed.
func (t *tracer) classic(id, parent int, model *energy.Model, prog *isa.Program, img *mem.Image) (*cpu.Result, error) {
	cm := t.fork(id, parent, img)
	defer t.release(cm)
	s := t.rec.start("cpu.run", parent, id)
	h := mem.NewDefaultHierarchy()
	core := cpu.New(model, h, cm)
	core.MaxInstrs = t.cfg.MaxInstrs
	err := core.Run(prog)
	t.rec.end(s)
	if err != nil {
		return nil, err
	}
	t.cpuTrace.Observe(core.Engine, core.Acct.Instrs)
	t.count(func(n *layerCounts) { n.cpuInstrs += core.Acct.Instrs })
	return &cpu.Result{Program: prog.Name, Acct: core.Acct, Serviced: h.Serviced, Regs: core.Regs}, nil
}

// amnesicRun builds and runs one amnesic machine on a fork of img.
func (t *tracer) amnesicRun(id, parent int, model, decision *energy.Model, bin *compiler.Annotated, img *mem.Image, k policy.Kind) (*amnesic.Machine, error) {
	fm := t.fork(id, parent, img)
	defer t.release(fm)
	s := t.rec.start("amnesic.new", parent, id)
	m, err := amnesic.New(model, bin, fm, policy.New(k), t.cfg.UArch)
	t.rec.end(s)
	if err != nil {
		return nil, err
	}
	m.MaxInstrs = t.cfg.MaxInstrs
	m.DecisionModel = decision
	s = t.rec.start("amnesic.run", parent, id)
	err = m.Run()
	t.rec.end(s)
	if err != nil {
		return nil, err
	}
	t.amnesicTrace.Observe(m.Engine, m.Acct.Instrs)
	t.count(func(n *layerCounts) {
		n.amnesicInstrs += m.Acct.Instrs
		n.rcmpFired += m.Stat.RcmpRecomputed
		n.rcmpTotal += m.Stat.RcmpTotal
	})
	return m, nil
}

// policyStage runs the policy simulations over cfg.Workers goroutines, as
// the harness's pool does once a prepare job has finished.
func (t *tracer) policyStage(id, parent int, art *harness.Artifacts, labels []string) (map[string]*harness.PolicyRun, error) {
	sp := t.rec.start("harness.policy_stage", parent, id)
	runs := make([]*harness.PolicyRun, len(labels))
	errs := make([]error, len(labels))
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < min(t.cfg.Workers, len(labels)); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(labels); i = int(next.Add(1)) - 1 {
				runs[i], errs[i] = t.policy(id, sp, art, labels[i])
			}
		}()
	}
	wg.Wait()
	t.rec.end(sp)
	out := make(map[string]*harness.PolicyRun, len(labels))
	for i, l := range labels {
		if errs[i] != nil {
			return nil, fmt.Errorf("%s: %w", l, errs[i])
		}
		out[l] = runs[i]
	}
	return out, nil
}

// policy is harness.RunPolicy with a span per call.
func (t *tracer) policy(id, parent int, art *harness.Artifacts, label string) (*harness.PolicyRun, error) {
	sp := t.rec.start("harness.policy", parent, id)
	defer t.rec.end(sp)
	bin, k := policyBinary(art, label)
	m, err := t.amnesicRun(id, sp, t.cfg.Model, nil, bin, art.Image, k)
	if err != nil {
		return nil, err
	}
	classic := art.Classic
	run := &harness.PolicyRun{Label: label, Acct: m.Acct, Stat: m.Stat}
	run.EDPGain = stats.Gain(classic.Acct.EDP(), m.Acct.EDP())
	run.EnergyGain = stats.Gain(classic.Acct.EnergyNJ, m.Acct.EnergyNJ)
	run.TimeGain = stats.Gain(classic.Acct.TimeNS, m.Acct.TimeNS)
	run.Swapped, run.SwappedCount = swappedProfile(bin, art.Profile, m.Stat)
	if t.cfg.Verify {
		run.Verified = m.Regs == classic.Regs
		if !run.Verified {
			return nil, fmt.Errorf("architectural state diverges from classic execution")
		}
	}
	return run, nil
}

// breakEven is harness.BreakEvenContext with a span per call: the two
// bracketing probes run concurrently when there is more than one worker,
// then the crossing is bisected.
func (t *tracer) breakEven(id, parent int, w *workloads.Workload, maxFactor float64) (float64, error) {
	sp := t.rec.start("harness.breakeven", parent, id)
	defer t.rec.end(sp)
	cfg := t.cfg
	base := cfg.Model
	s := t.rec.start("harness.prepare", sp, id)
	art, err := cfg.Cache.Get(cfg, w)
	t.rec.end(s)
	if err != nil {
		return 0, err
	}
	if len(art.Ann.Slices) == 0 {
		return 0, fmt.Errorf("%s: no slices to sweep", w.Name)
	}
	gainAt := func(factor float64) (float64, error) {
		m := base.Clone()
		m.RScale = factor
		classic, err := t.classic(id, sp, m, art.Prog, art.Image)
		if err != nil {
			return 0, err
		}
		am, err := t.amnesicRun(id, sp, m, base, art.Ann, art.Image, policy.Exact)
		if err != nil {
			return 0, err
		}
		return stats.Gain(classic.Acct.EDP(), am.Acct.EDP()), nil
	}

	lo, hi := 1.0, maxFactor
	var gLo, gHi float64
	var errLo, errHi error
	parallel := t.cfg.Workers > 1
	if parallel {
		done := make(chan struct{})
		go func() {
			gHi, errHi = gainAt(hi)
			close(done)
		}()
		gLo, errLo = gainAt(lo)
		<-done
	} else {
		gLo, errLo = gainAt(lo)
	}
	if errLo != nil {
		return 0, errLo
	}
	if gLo <= 0 {
		return 1, nil
	}
	if !parallel {
		gHi, errHi = gainAt(hi)
	}
	if errHi != nil {
		return 0, errHi
	}
	if gHi > 0 {
		return hi, nil
	}
	for i := 0; i < 18 && hi-lo > 0.01*lo; i++ {
		mid := (lo + hi) / 2
		g, err := gainAt(mid)
		if err != nil {
			return 0, err
		}
		if g > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// policyBinary maps a policy label to the binary and runtime policy the
// harness runs it with (paper §5.1).
func policyBinary(art *harness.Artifacts, label string) (*compiler.Annotated, policy.Kind) {
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

// swappedProfile is the harness's Table 5 weighting of each fired slice's
// classic per-load service-level profile, needed for PolicyRun.Swapped.
func swappedProfile(bin *compiler.Annotated, prof *profile.Profile, st amnesic.Stats) ([energy.NumLevels]float64, uint64) {
	var acc [energy.NumLevels]float64
	var total float64
	var count uint64
	for _, si := range bin.Slices {
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
