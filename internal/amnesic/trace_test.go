package amnesic_test

import (
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"syscall"
	"testing"

	"github.com/amnesiac-sim/amnesiac/internal/amnesic"
	"github.com/amnesiac-sim/amnesiac/internal/compiler"
	"github.com/amnesiac-sim/amnesiac/internal/energy"
	"github.com/amnesiac-sim/amnesiac/internal/mem"
	"github.com/amnesiac-sim/amnesiac/internal/policy"
	"github.com/amnesiac-sim/amnesiac/internal/profile"
	"github.com/amnesiac-sim/amnesiac/internal/trace"
	"github.com/amnesiac-sim/amnesiac/internal/uarch"
	"github.com/amnesiac-sim/amnesiac/internal/workloads"
)

// runTraceArm executes one amnesic machine with the given trace config and
// uarch sizing, returning the machine and its architectural store stream.
func runTraceArm(t *testing.T, model *energy.Model, ann *compiler.Annotated, initial *mem.Memory, k policy.Kind, ucfg uarch.Config, tc trace.Config) (*amnesic.Machine, [][2]uint64) {
	t.Helper()
	machine, err := amnesic.New(model, ann, initial.Clone(), policy.New(k), ucfg)
	if err != nil {
		t.Fatalf("machine(%s): %v", k, err)
	}
	machine.Trace = tc
	var stores [][2]uint64
	machine.StoreHook = func(addr, val uint64) { stores = append(stores, [2]uint64{addr, val}) }
	if err := machine.Run(); err != nil {
		t.Fatalf("amnesic run (%s): %v", k, err)
	}
	return machine, stores
}

// assertTraceParity compares a traced amnesic run against a purely
// interpreted one: registers, the complete energy account (bit-identical
// floats), runtime statistics, and the architectural store stream.
func assertTraceParity(t *testing.T, traced, interp *amnesic.Machine, tStores, iStores [][2]uint64) {
	t.Helper()
	if traced.Regs != interp.Regs {
		t.Fatalf("registers diverge under trace replay")
	}
	if traced.Acct != interp.Acct {
		t.Fatalf("energy accounts diverge:\ntraced %+v\ninterp %+v", traced.Acct, interp.Acct)
	}
	if !reflect.DeepEqual(traced.Stat, interp.Stat) {
		t.Fatalf("runtime stats diverge:\ntraced %+v\ninterp %+v", traced.Stat, interp.Stat)
	}
	if len(tStores) != len(iStores) {
		t.Fatalf("store stream lengths diverge: traced %d interp %d", len(tStores), len(iStores))
	}
	for i := range tStores {
		if tStores[i] != iStores[i] {
			t.Fatalf("store %d diverges: traced %v interp %v", i, tStores[i], iStores[i])
		}
	}
}

// auxTraceEntries counts CRec/CRcmp ops across an engine's built traces —
// the vacuity guard that superblocks really crossed amnesic opcodes.
func auxTraceEntries(eng *trace.Engine) int {
	n := 0
	for _, tr := range eng.Traces() {
		for _, op := range tr.Ops {
			if op.Code == trace.CRec || op.Code == trace.CRcmp {
				n++
			}
		}
	}
	return n
}

// TestTracedAmnesicMatchesInterp: under every policy, a traced amnesic run
// (forced threshold 1) is bit-identical to pure interpretation, and the
// engine demonstrably replayed superblocks crossing REC/RCMP.
func TestTracedAmnesicMatchesInterp(t *testing.T) {
	model, ann, initial, want := compileDerived(t, 40000, compiler.DefaultOptions())
	force := trace.Config{Enable: true, Threshold: 1}
	off := trace.Config{}
	for _, k := range policy.All() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			traced, tStores := runTraceArm(t, model, ann, initial, k, uarch.DefaultConfig(), force)
			interp, iStores := runTraceArm(t, model, ann, initial, k, uarch.DefaultConfig(), off)
			if got := interp.Regs[13]; got != want {
				t.Fatalf("interp sum = %d, want %d", got, want)
			}
			if interp.Engine != nil {
				t.Fatalf("untraced arm built an engine")
			}
			eng := traced.Engine
			if eng == nil || eng.Replays == 0 || eng.ReplayedInstrs == 0 {
				t.Fatalf("vacuous trace run: engine=%v", eng)
			}
			if auxTraceEntries(eng) == 0 {
				t.Fatalf("no trace crossed a REC/RCMP site (built=%d blacklisted=%d)", eng.Built, eng.Blacklisted)
			}
			assertTraceParity(t, traced, interp, tStores, iStores)
		})
	}
}

// TestTracedAmnesicDefaultOn: the zero-configured machine traces (matching
// the classic core) and still reproduces the untraced architectural state.
func TestTracedAmnesicDefaultOn(t *testing.T) {
	model, ann, initial, _ := compileDerived(t, 40000, compiler.DefaultOptions())
	machine, err := amnesic.New(model, ann, initial.Clone(), policy.New(policy.Compiler), uarch.DefaultConfig())
	if err != nil {
		t.Fatalf("machine: %v", err)
	}
	if !machine.Trace.Enable {
		t.Fatalf("amnesic tracing is not on by default")
	}
	if err := machine.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if machine.Engine == nil || machine.Engine.Replays == 0 {
		t.Fatalf("default-on run replayed nothing: %+v", machine.Engine)
	}
	interp, _ := runTraceArm(t, model, ann, initial, policy.Compiler, uarch.DefaultConfig(), trace.Config{})
	if machine.Regs != interp.Regs || machine.Acct != interp.Acct {
		t.Fatalf("default-on run diverges from interpretation")
	}
}

// TestTracedAmnesicBudgetParity: an instruction budget landing inside hot
// replay regions pauses at exactly the interpreter's boundary — registers,
// PC, and account all bit-identical.
func TestTracedAmnesicBudgetParity(t *testing.T) {
	model, ann, initial, _ := compileDerived(t, 40000, compiler.DefaultOptions())
	force := trace.Config{Enable: true, Threshold: 1}
	for _, budget := range []uint64{5000, 50001, 250007} {
		tm, err := amnesic.New(model, ann, initial.Clone(), policy.New(policy.Compiler), uarch.DefaultConfig())
		if err != nil {
			t.Fatalf("machine: %v", err)
		}
		tm.Trace = force
		tm.MaxInstrs = budget
		terr := tm.Run()
		im, err := amnesic.New(model, ann, initial.Clone(), policy.New(policy.Compiler), uarch.DefaultConfig())
		if err != nil {
			t.Fatalf("machine: %v", err)
		}
		im.Trace = trace.Config{}
		im.MaxInstrs = budget
		ierr := im.Run()
		if (terr == nil) != (ierr == nil) || (terr != nil && terr.Error() != ierr.Error()) {
			t.Fatalf("budget %d: errors diverge: traced %v interp %v", budget, terr, ierr)
		}
		if tm.Regs != im.Regs || tm.Acct != im.Acct {
			t.Fatalf("budget %d: state diverges under budget exhaustion", budget)
		}
	}
}

// TestTracedAmnesicHistOverflowParity: a one-entry Hist makes RECs
// overflow mid-run, permanently failing slices while traces that cross
// their RCMPs are live. Replay calls the live handler, which reads the
// failed bit, so the traced run must still match interpretation bit for
// bit.
func TestTracedAmnesicHistOverflowParity(t *testing.T) {
	model, ann, initial, _ := compileDerived(t, 40000, compiler.DefaultOptions())
	tiny := uarch.Config{SFileEntries: 192, HistEntries: 1, IBuffEntries: 256}
	force := trace.Config{Enable: true, Threshold: 1}
	traced, tStores := runTraceArm(t, model, ann, initial, policy.Compiler, tiny, force)
	interp, iStores := runTraceArm(t, model, ann, initial, policy.Compiler, tiny, trace.Config{})
	if interp.Stat.RecFailed == 0 {
		t.Skipf("workload did not overflow a 1-entry Hist (RecFailed=0); overflow parity not exercised")
	}
	assertTraceParity(t, traced, interp, tStores, iStores)
}

func cpuNS() int64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// TestProfAmnesicTrace A/B-compares traced vs untraced amnesic execution in
// one process, alternating per iteration so host-speed drift hits both
// sides equally. The PR 10 gate: aggregate traced/untraced >= 1.2x.
func TestProfAmnesicTrace(t *testing.T) {
	if os.Getenv("PROF_WORKLOAD") == "" {
		t.Skip("set PROF_WORKLOAD")
	}
	model := energy.Default()
	// Each iteration allocates a fresh machine plus a cloned memory image
	// (~tens of MB), so the collector would otherwise fire inside measured
	// windows, charging mark/sweep work to whichever arm happens to be
	// running. Disable automatic GC and collect explicitly between
	// iterations — outside the rusage windows — so both arms measure pure
	// simulator time.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var tOn, tOff, nOn, nOff int64
	for _, w := range workloads.Responsive() {
		prog, initial := w.Build(0.3)
		prof, err := profile.Collect(model, prog, initial)
		if err != nil {
			t.Fatal(err)
		}
		ann, err := compiler.Compile(model, prog, prof, initial, compiler.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		var onNS, offNS int64
		var onI, offI uint64
		for i := 0; i < 8; i++ {
			runtime.GC()
			mOn, err := amnesic.New(model, ann, initial.Clone(), policy.New(policy.Compiler), uarch.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			s := cpuNS()
			if err := mOn.Run(); err != nil {
				t.Fatal(err)
			}
			onNS += cpuNS() - s
			onI += mOn.Acct.Instrs
			runtime.GC()
			mOff, err := amnesic.New(model, ann, initial.Clone(), policy.New(policy.Compiler), uarch.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			mOff.Trace = trace.Config{}
			s = cpuNS()
			if err := mOff.Run(); err != nil {
				t.Fatal(err)
			}
			offNS += cpuNS() - s
			offI += mOff.Acct.Instrs
		}
		t.Logf("%-4s traced=%6.1f interp=%6.1f MIPS(cpu) ratio=%.3f",
			w.Name, float64(onI)*1e3/float64(onNS), float64(offI)*1e3/float64(offNS),
			float64(onI)*float64(offNS)/(float64(offI)*float64(onNS)))
		tOn += onNS
		tOff += offNS
		nOn += int64(onI)
		nOff += int64(offI)
	}
	ratio := float64(nOn) * float64(tOff) / (float64(nOff) * float64(tOn))
	t.Logf("AGG  traced=%6.1f interp=%6.1f ratio=%.3f",
		float64(nOn)*1e3/float64(tOn), float64(nOff)*1e3/float64(tOff), ratio)
	if ratio < 1.2 {
		t.Errorf("traced amnesic %.3fx untraced, want >= 1.2x", ratio)
	}
}
