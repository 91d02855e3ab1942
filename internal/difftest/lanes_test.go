package difftest

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"github.com/amnesiac-sim/amnesiac/internal/amnesic"
	"github.com/amnesiac-sim/amnesiac/internal/compiler"
	"github.com/amnesiac-sim/amnesiac/internal/cpu"
	"github.com/amnesiac-sim/amnesiac/internal/gen"
	"github.com/amnesiac-sim/amnesiac/internal/mem"
	"github.com/amnesiac-sim/amnesiac/internal/policy"
	"github.com/amnesiac-sim/amnesiac/internal/profile"
	"github.com/amnesiac-sim/amnesiac/internal/trace"
)

// laneKinds are the policy kinds a five-policy suite runs as lanes of one
// pass.
var laneKinds = []policy.Kind{policy.Exact, policy.Compiler, policy.FLC, policy.LLC}

// laneRun is one finished amnesic run and its store stream.
type laneRun struct {
	m      *amnesic.Machine
	err    error
	stores []StoreEvent
}

// runLaneKinds runs bin with one lane per kind, untraced or with trace
// reuse forced on.
func runLaneKinds(opts Options, bin *compiler.Annotated, initial *mem.Memory, kinds []policy.Kind) (laneRun, error) {
	pols := make([]policy.Policy, len(kinds))
	for i, k := range kinds {
		pols[i] = policy.New(k)
	}
	m, err := amnesic.NewLanes(opts.Model, bin, initial.Clone(), pols, opts.Uarch)
	if err != nil {
		return laneRun{}, err
	}
	m.MaxInstrs = opts.MaxInstrs
	m.TamperRTN = opts.TamperRTN
	m.Trace = trace.Config{}
	if opts.TraceForce {
		m.Trace = trace.Config{Enable: true, Threshold: 1}
	}
	r := laneRun{m: m}
	m.StoreHook = collectStores(&r.stores)
	r.err = m.Run()
	return r, nil
}

// laneDiff names the first difference between lane i of pass and alone,
// its policy's own run: the error, registers, memory, store stream,
// account or stats.
func laneDiff(pass laneRun, i int, alone laneRun) string {
	l := pass.m.Lanes[i]
	switch {
	case fmt.Sprint(pass.err) != fmt.Sprint(alone.err):
		return fmt.Sprintf("error %v, alone %v", pass.err, alone.err)
	case pass.m.Regs != alone.m.Regs:
		return "registers diverge"
	case !pass.m.Mem.Equal(alone.m.Mem):
		return fmt.Sprintf("memories diverge at words %v", pass.m.Mem.Diff(alone.m.Mem, 4))
	case !reflect.DeepEqual(pass.stores, alone.stores):
		return fmt.Sprintf("store streams diverge: %d events, alone %d", len(pass.stores), len(alone.stores))
	case l.Acct != alone.m.Acct:
		return "accounts diverge: " + accountDiff(&l.Acct, &alone.m.Acct)
	case !reflect.DeepEqual(l.Stat, alone.m.Stat):
		return fmt.Sprintf("stats diverge:\nlane  %+v\nalone %+v", l.Stat, alone.m.Stat)
	}
	return ""
}

// lanesOutcome is what one seed showed: binaries run as lanes, passes
// whose lanes recomputed different numbers of RCMPs, and tampered passes
// stopped by the lanes' divergence check.
type lanesOutcome struct {
	binaries, mixed, diverged int
}

// checkLanesSeed compiles the seed's program and runs each binary
// LaneSafe accepts once with every kind as a lane, and each kind alone:
// every lane must equal its own run. Under opts.TamperRTN a pass either
// stops with amnesic.ErrLanesDiverge, where lanes split at an RCMP, or no
// lane split and each still equals its own tampered run.
func checkLanesSeed(seed int64, opts Options) (lanesOutcome, error) {
	var out lanesOutcome
	prog, initial, err := gen.Generate(seed, opts.Gen)
	if err != nil {
		return out, err
	}
	prof, err := profile.CollectLimit(opts.Model, prog, initial, opts.MaxInstrs)
	if err != nil {
		return out, fmt.Errorf("profile: %w", err)
	}
	plan, err := compiler.NewPlan(opts.Model, prog, prof, opts.Compiler)
	if err != nil {
		return out, fmt.Errorf("plan: %w", err)
	}
	core := cpu.New(opts.Model, mem.NewDefaultHierarchy(), initial.Clone())
	core.MaxInstrs = opts.MaxInstrs
	core.Watch = plan.Watch()
	if err := core.Run(prog); err != nil {
		return out, fmt.Errorf("classic: %w", err)
	}
	var bins []*compiler.Annotated
	for _, mode := range []compiler.Mode{opts.Compiler.Mode, compiler.ModeOracleAll} {
		bin, err := plan.Emit(mode)
		if err != nil {
			return out, fmt.Errorf("emit: %w", err)
		}
		if amnesic.LaneSafe(bin) && (len(bins) == 0 || !reflect.DeepEqual(bins[0].Prog, bin.Prog)) {
			bins = append(bins, bin)
		}
	}
	for _, bin := range bins {
		pass, err := runLaneKinds(opts, bin, initial, laneKinds)
		if err != nil {
			return out, err
		}
		tampered := opts.TamperRTN != 0 && errors.Is(pass.err, amnesic.ErrLanesDiverge)
		if tampered {
			out.diverged++
		}
		out.binaries++
		for i, k := range laneKinds {
			if pass.m.Lanes[i].Stat.RcmpRecomputed != pass.m.Lanes[0].Stat.RcmpRecomputed {
				out.mixed = 1
			}
			if tampered {
				continue
			}
			alone, err := runLaneKinds(opts, bin, initial, []policy.Kind{k})
			if err != nil {
				return out, err
			}
			if d := laneDiff(pass, i, alone); d != "" {
				return out, fmt.Errorf("%s lane: %s", k, d)
			}
		}
	}
	return out, nil
}

// TestLanesOracle runs generated programs (-difftest.n seeds, or the one
// -difftest.seed names; -difftest.trace forces trace reuse on) through
// checkLanesSeed, untampered and with TamperRTN set. Vacuity: some pass
// split its lanes' decisions, and some tampered pass stopped at the split.
func TestLanesOracle(t *testing.T) {
	opts := DefaultOptions()
	opts.TraceForce = *traceFlag
	first, n := int64(0), int64(*seedCount)
	if *seedFlag >= 0 {
		first, n = *seedFlag, 1
	} else if testing.Short() {
		n = 100
	}
	tamper := opts
	tamper.TamperRTN = 0xDEADBEEF
	var (
		mu     sync.Mutex
		total  lanesOutcome
		failed []error
		wg     sync.WaitGroup
		seeds  = make(chan int64)
	)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := range seeds {
				plain, err := checkLanesSeed(seed, opts)
				if err == nil {
					var bad lanesOutcome
					if bad, err = checkLanesSeed(seed, tamper); err != nil {
						err = fmt.Errorf("tampered: %w", err)
					}
					plain.diverged = bad.diverged
				}
				mu.Lock()
				if err != nil {
					failed = append(failed, fmt.Errorf("seed %d: %w (replay: go test ./internal/difftest -run TestLanesOracle -difftest.seed=%d)", seed, err, seed))
				}
				total.binaries += plain.binaries
				total.mixed += plain.mixed
				total.diverged += plain.diverged
				mu.Unlock()
			}
		}()
	}
	for seed := first; seed < first+n; seed++ {
		seeds <- seed
	}
	close(seeds)
	wg.Wait()
	for _, err := range failed {
		t.Error(err)
	}
	if *seedFlag < 0 && (total.mixed == 0 || total.diverged == 0) {
		t.Errorf("weak sweep: %d binaries, %d seeds with split decisions, %d tampered passes stopped", total.binaries, total.mixed, total.diverged)
	}
	t.Logf("%d seeds, %d binaries as lanes: %d seeds with split decisions, %d tampered passes stopped at the split",
		n, total.binaries, total.mixed, total.diverged)
}
