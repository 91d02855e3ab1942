package amnesic

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/amnesiac-sim/amnesiac/internal/compiler"
	"github.com/amnesiac-sim/amnesiac/internal/energy"
	"github.com/amnesiac-sim/amnesiac/internal/exec"
	"github.com/amnesiac-sim/amnesiac/internal/isa"
	"github.com/amnesiac-sim/amnesiac/internal/mem"
	"github.com/amnesiac-sim/amnesiac/internal/policy"
	"github.com/amnesiac-sim/amnesiac/internal/profile"
	"github.com/amnesiac-sim/amnesiac/internal/uarch"
	"github.com/amnesiac-sim/amnesiac/internal/workloads"
)

// laneKinds are the policy kinds a five-policy suite runs as lanes.
var laneKinds = []policy.Kind{policy.Exact, policy.Compiler, policy.FLC, policy.LLC}

// laneRun is one finished run: the machine, its error and a hash of its
// architectural store stream.
type laneRun struct {
	m      *Machine
	err    error
	stores uint64
}

// runKinds runs ann on a copy of initial with one lane per kind, under the
// instruction budget, with the amnesic structures sized by ucfg.
func runKinds(t *testing.T, model *energy.Model, ann *compiler.Annotated, initial *mem.Memory, kinds []policy.Kind, budget uint64, ucfg uarch.Config) laneRun {
	t.Helper()
	pols := make([]policy.Policy, len(kinds))
	for i, k := range kinds {
		pols[i] = policy.New(k)
	}
	m, err := NewLanes(model, ann, initial.Clone(), pols, ucfg)
	if err != nil {
		t.Fatal(err)
	}
	m.MaxInstrs = budget
	r := laneRun{m: m}
	m.StoreHook = func(addr, val uint64) { r.stores = r.stores*1000003 + addr ^ val }
	r.err = m.Run()
	return r
}

// sameAsAlone reports the first difference between lane i of pass and
// alone, a one-lane run of the same policy: the error, registers, memory,
// store stream, caches, Hist, and the lane's IBuff, account and stats.
func sameAsAlone(pass laneRun, i int, alone laneRun) error {
	l, a := pass.m.Lanes[i], alone.m
	switch {
	case fmt.Sprint(pass.err) != fmt.Sprint(alone.err):
		return fmt.Errorf("error %v, alone %v", pass.err, alone.err)
	case pass.m.Regs != a.Regs:
		return errors.New("registers diverge")
	case !pass.m.Mem.Equal(a.Mem):
		return errors.New("memories diverge")
	case pass.stores != alone.stores:
		return errors.New("store streams diverge")
	case !reflect.DeepEqual(pass.m.Hier, a.Hier):
		return errors.New("cache hierarchies diverge")
	case !reflect.DeepEqual(pass.m.Hist, a.Hist):
		return errors.New("Hist tables diverge")
	case !reflect.DeepEqual(l.IBuff, a.IBuff):
		return errors.New("IBuffs diverge")
	case l.Acct != a.Acct:
		return fmt.Errorf("accounts diverge:\nlane  %+v\nalone %+v", l.Acct, a.Acct)
	case !reflect.DeepEqual(l.Stat, a.Stat):
		return fmt.Errorf("stats diverge:\nlane  %+v\nalone %+v", l.Stat, a.Stat)
	}
	return nil
}

// checkLanes runs ann with every kind as a lane and each kind alone, with
// the amnesic structures sized by ucfg, and fails unless every lane equals
// its own run. It returns the pass.
func checkLanes(t *testing.T, model *energy.Model, ann *compiler.Annotated, initial *mem.Memory, ucfg uarch.Config) laneRun {
	t.Helper()
	pass := runKinds(t, model, ann, initial, laneKinds, 0, ucfg)
	if pass.err != nil {
		t.Fatal(pass.err)
	}
	for i, k := range laneKinds {
		alone := runKinds(t, model, ann, initial, []policy.Kind{k}, 0, ucfg)
		if err := sameAsAlone(pass, i, alone); err != nil {
			t.Fatalf("%s lane: %v", k, err)
		}
	}
	return pass
}

// compiled memoizes compileWorkload under the default model: the lane
// tests only read a binary and copy its initial memory.
var compiled sync.Map // compileKey → *compiledWorkload

type compileKey struct {
	name  string
	scale float64
}

type compiledWorkload struct {
	once    sync.Once
	ann     *compiler.Annotated
	initial *mem.Memory
	err     error
}

// compileWorkload builds, profiles and compiles a workload at scale under
// the default model, once per test binary.
func compileWorkload(t *testing.T, name string, scale float64) (*compiler.Annotated, *mem.Memory) {
	t.Helper()
	v, _ := compiled.LoadOrStore(compileKey{name, scale}, new(compiledWorkload))
	c := v.(*compiledWorkload)
	c.once.Do(func() {
		w, err := workloads.Get(name)
		if err != nil {
			c.err = err
			return
		}
		model := energy.Default()
		prog, initial := w.Build(scale)
		prof, err := profile.Collect(model, prog, initial)
		if err != nil {
			c.err = err
			return
		}
		c.ann, c.err = compiler.Compile(model, prog, prof, initial, compiler.DefaultOptions())
		c.initial = initial
	})
	if c.err != nil {
		t.Fatal(c.err)
	}
	return c.ann, c.initial
}

// TestLanesMatchSeparateRuns: on every workload whose binary LaneSafe
// accepts, each lane of a four-kind machine ends equal to its policy's own
// run: registers, memory, store stream, caches, Hist, IBuff, account and
// stats. fe, whose slice loads in its body, is the one binary refused. The
// 0.3 scale is skipped under the race detector.
func TestLanesMatchSeparateRuns(t *testing.T) {
	model := energy.Default()
	scales := []float64{0.05, 0.3}
	if raceEnabled {
		scales = scales[:1]
	}
	var mu sync.Mutex
	var refused []string
	t.Run("each", func(t *testing.T) {
		for _, scale := range scales {
			for _, w := range workloads.All() {
				t.Run(fmt.Sprintf("%s@%g", w.Name, scale), func(t *testing.T) {
					t.Parallel()
					ann, initial := compileWorkload(t, w.Name, scale)
					if !LaneSafe(ann) {
						mu.Lock()
						refused = append(refused, w.Name)
						mu.Unlock()
						return
					}
					checkLanes(t, model, ann, initial, uarch.DefaultConfig())
				})
			}
		}
	})
	for _, name := range refused {
		if name != "fe" {
			t.Errorf("%s refused as lanes; only fe has a body-load slice", name)
		}
	}
	if len(refused) != len(scales) {
		t.Errorf("refused %v, want fe at every scale", refused)
	}
}

// TestLanesSmallStructures: with an SFile and IBuff too small for the
// responsive kernels' slices and a Hist with no entry, lanes meet SFile
// rejections, IBuff evictions and failed RECs (which disable their slices
// in every lane), and each lane still equals its own run.
func TestLanesSmallStructures(t *testing.T) {
	model := energy.Default()
	small := uarch.Config{SFileEntries: 2, HistEntries: 0, IBuffEntries: 3}
	var rejected, recFailed atomic.Uint64
	t.Run("each", func(t *testing.T) {
		for _, w := range workloads.Responsive() {
			t.Run(w.Name, func(t *testing.T) {
				t.Parallel()
				ann, initial := compileWorkload(t, w.Name, 0.05)
				if !LaneSafe(ann) {
					return
				}
				pass := checkLanes(t, model, ann, initial, small)
				recFailed.Add(pass.m.Stat.RecFailed)
				for _, l := range pass.m.Lanes {
					rejected.Add(l.Stat.SFileRejected)
				}
			})
		}
	})
	if rejected.Load() == 0 || recFailed.Load() == 0 {
		t.Fatalf("weak sizing: %d SFile rejections, %d failed RECs", rejected.Load(), recFailed.Load())
	}
}

// TestLanesStopMidBody: sr with the RECs that feed its slice's late Hist
// slot turned into NOPs (as TestMissingHistMatchesReference builds it)
// makes every walk of that slice stop part-way and fall back to the load.
// Lanes that walk and lanes that load at the same RCMP must still each
// equal their own run.
func TestLanesStopMidBody(t *testing.T) {
	model := energy.Default()
	ann, initial := compileWorkload(t, "sr", 0.1)
	victim := -1
	for _, si := range ann.Slices {
		if r := &si.Recipe; len(r.Hist) > 0 && r.Hist[len(r.Hist)-1].Op > 0 {
			victim = si.ID
		}
	}
	if victim < 0 {
		t.Fatal("sr compiled no slice that reads Hist after its first op")
	}
	nopped := *ann
	nopped.Prog = ann.Prog.Clone()
	for pc, in := range nopped.Prog.Code {
		if in.Op == isa.REC && int(in.SliceID) == victim {
			nopped.Prog.Code[pc] = isa.Instr{Op: isa.NOP}
		}
	}
	pass := checkLanes(t, model, &nopped, initial, uarch.DefaultConfig())
	// Vacuity: the Compiler lane walked the slice and never finished it,
	// and some lane loaded at RCMPs where the Compiler lane walked.
	c := pass.m.Lanes[1]
	if c.Acct.HistReads == 0 || c.Stat.SliceRecomputes[victim] != 0 {
		t.Fatalf("Compiler lane: %d Hist reads, %d recomputes of slice %d; want walks that stop", c.Acct.HistReads, c.Stat.SliceRecomputes[victim], victim)
	}
	mixed := false
	for _, l := range pass.m.Lanes {
		mixed = mixed || l.Acct.HistReads < c.Acct.HistReads
	}
	if !mixed {
		t.Fatal("every lane walked wherever the Compiler lane did: no mixed decisions")
	}
}

// TestLanesRefused: a machine refuses several lanes on fe, whose slice
// loads in its body, and on a dead-store-eliminated binary, and refuses to
// run several lanes without the shadow touch.
func TestLanesRefused(t *testing.T) {
	model := energy.Default()
	two := []policy.Policy{policy.New(policy.Exact), policy.New(policy.Compiler)}
	ann, initial := compileWorkload(t, "fe", 0.05)
	if _, err := NewLanes(model, ann, initial.Clone(), two, uarch.DefaultConfig()); !errors.Is(err, ErrLanes) {
		t.Errorf("fe with two lanes: error %v, want ErrLanes", err)
	}
	if _, err := NewLanes(model, ann, initial.Clone(), two[:1], uarch.DefaultConfig()); err != nil {
		t.Errorf("fe with one lane: %v", err)
	}
	dse := &compiler.Annotated{Prog: &isa.Program{Code: []isa.Instr{{Op: isa.HALT}}}, DeadStoreElim: true}
	compilers := []policy.Policy{policy.New(policy.Compiler), policy.New(policy.Compiler)}
	if _, err := NewLanes(model, dse, mem.NewMemory(), compilers, uarch.DefaultConfig()); !errors.Is(err, ErrLanes) {
		t.Errorf("dead-store-eliminated binary with two lanes: error %v, want ErrLanes", err)
	}
	ann, initial = compileWorkload(t, "is", 0.05)
	m, err := NewLanes(model, ann, initial.Clone(), two, uarch.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.ShadowTouch = false
	if err := m.Run(); !errors.Is(err, errLanesShadow) {
		t.Errorf("two lanes without the shadow touch: error %v, want errLanesShadow", err)
	}
}

// TestLanesBudget: the pass keeps the instruction budget over what the
// lanes share, and a lane whose own total exceeds it fails the run at
// exit. A budget between the pass's count and the Compiler lane's total
// fails; one at the largest lane total passes with every lane unchanged,
// and one below it fails.
func TestLanesBudget(t *testing.T) {
	model := energy.Default()
	ann, initial := compileWorkload(t, "is", 0.05)
	free := runKinds(t, model, ann, initial, laneKinds, 0, uarch.DefaultConfig())
	if free.err != nil {
		t.Fatal(free.err)
	}
	pass, compilerTotal := free.m.PassInstrs(), free.m.Lanes[1].Acct.Instrs
	most := uint64(0)
	for _, l := range free.m.Lanes {
		most = max(most, l.Acct.Instrs)
	}
	if pass >= compilerTotal {
		t.Fatalf("pass retired %d instructions, the Compiler lane %d: no lane retired its own", pass, compilerTotal)
	}
	for _, budget := range []uint64{(pass + compilerTotal) / 2, most - 1} {
		if r := runKinds(t, model, ann, initial, laneKinds, budget, uarch.DefaultConfig()); !errors.Is(r.err, exec.ErrInstrBudget) {
			t.Errorf("budget %d (pass %d, Compiler lane %d, largest lane %d): error %v, want the budget error",
				budget, pass, compilerTotal, most, r.err)
		}
	}
	r := runKinds(t, model, ann, initial, laneKinds, most, uarch.DefaultConfig())
	if r.err != nil {
		t.Fatalf("budget at the largest lane total %d: %v", most, r.err)
	}
	for i, l := range r.m.Lanes {
		if f := free.m.Lanes[i]; l.Acct != f.Acct || !reflect.DeepEqual(l.Stat, f.Stat) || r.m.Regs != free.m.Regs {
			t.Errorf("%s lane under budget %d differs from its unbounded run", laneKinds[i], most)
		}
	}
}
