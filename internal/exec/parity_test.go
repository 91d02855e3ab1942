package exec_test

import (
	"slices"
	"strings"
	"testing"

	"github.com/amnesiac-sim/amnesiac/internal/asm"
	"github.com/amnesiac-sim/amnesiac/internal/cpu"
	"github.com/amnesiac-sim/amnesiac/internal/energy"
	"github.com/amnesiac-sim/amnesiac/internal/exec"
	"github.com/amnesiac-sim/amnesiac/internal/isa"
	"github.com/amnesiac-sim/amnesiac/internal/mem"
	"github.com/amnesiac-sim/amnesiac/internal/trace"
	"github.com/amnesiac-sim/amnesiac/internal/workloads"
)

// runOnce executes p on a fresh core and returns it with the collected
// store stream and error. threshold 0 disables tracing; threshold 1 forces
// recording on the first back-edge.
func runOnce(p *isa.Program, m *mem.Memory, maxInstrs uint64, threshold uint32) (*cpu.Core, [][2]uint64, error) {
	core := cpu.New(energy.Default(), mem.NewDefaultHierarchy(), m)
	core.MaxInstrs = maxInstrs
	if threshold == 0 {
		core.Trace = trace.Config{}
	} else {
		core.Trace = trace.Config{Enable: true, Threshold: threshold}
	}
	var stores [][2]uint64
	core.StoreHook = func(addr, val uint64) { stores = append(stores, [2]uint64{addr, val}) }
	err := core.Run(p)
	return core, stores, err
}

// assertParity runs p traced at threshold and untraced, and demands the
// same error text, registers, final pc, store stream and energy account.
func assertParity(t *testing.T, name string, p *isa.Program, mkMem func() *mem.Memory, maxInstrs uint64, threshold uint32) {
	t.Helper()
	traced, tStores, tErr := runOnce(p, mkMem(), maxInstrs, threshold)
	interp, iStores, iErr := runOnce(p, mkMem(), maxInstrs, 0)
	if (tErr == nil) != (iErr == nil) || (tErr != nil && tErr.Error() != iErr.Error()) {
		t.Fatalf("%s: error mismatch:\n  traced: %v\n  interp: %v", name, tErr, iErr)
	}
	if traced.Acct != interp.Acct {
		t.Errorf("%s: energy accounts diverge:\n  traced: %+v\n  interp: %+v", name, traced.Acct, interp.Acct)
	}
	if traced.Regs != interp.Regs {
		t.Errorf("%s: registers diverge:\n  traced: %v\n  interp: %v", name, traced.Regs, interp.Regs)
	}
	if traced.PC != interp.PC {
		t.Errorf("%s: final pc %d != %d", name, traced.PC, interp.PC)
	}
	if len(tStores) != len(iStores) {
		t.Fatalf("%s: store stream length %d != %d", name, len(tStores), len(iStores))
	}
	for i := range tStores {
		if tStores[i] != iStores[i] {
			t.Fatalf("%s: store %d diverges: %v != %v", name, i, tStores[i], iStores[i])
		}
	}
}

// TestTracedMatchesInterp forces tracing at threshold 1 on every responsive
// workload and demands the traced run be indistinguishable from pure
// interpretation: same registers, final pc, store stream, and bit-identical
// energy account.
func TestTracedMatchesInterp(t *testing.T) {
	for _, w := range workloads.Responsive() {
		prog, initial := w.Build(0.02)
		traced, _, err := runOnce(prog, initial.Clone(), 0, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if traced.Engine == nil || traced.Engine.Replays == 0 {
			t.Fatalf("%s: no replays happened; parity check would be vacuous", w.Name)
		}
		assertParity(t, w.Name, prog, initial.Clone, 0, 1)
	}
}

// TestTracedFaultParity drives a replayed load into a data-dependent
// misalignment: an offset table holds zeros until entry 8, whose value 1
// breaks alignment long after the loop went hot. The traced run must fault
// at the same pc with the byte-identical error text.
func TestTracedFaultParity(t *testing.T) {
	p, err := asm.Parse("fault_loop", `
    li   r1, 1024      ; offset table base
    li   r2, 1
    st   r2, 64(r1)    ; table[8] = 1 (bytes)
    li   r3, 2048      ; data base, 8-aligned
    li   r9, 100
loop:
    ld   r6, 0(r1)     ; walk the offset table
    add  r7, r3, r6
    ld   r8, 0(r7)     ; misaligned once r6 == 1
    addi r1, r1, 8
    addi r4, r4, 1
    blt  r4, r9, loop
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	traced, _, tErr := runOnce(p, mem.NewMemory(), 0, 1)
	if tErr == nil {
		t.Fatal("traced run did not fault")
	}
	if traced.Engine.Replays == 0 || traced.Engine.ReplayedInstrs == 0 {
		t.Fatal("fault did not occur under replay; test is vacuous")
	}
	assertParity(t, "fault_loop", p, mem.NewMemory, 0, 1)
}

// stopLoopSrc is a loop whose body holds a load, an ALU op, a store, a
// guard that leaves the recorded path every fourth iteration, and the
// closing branch. Each load reads the word the previous iteration stored.
// The aux variant puts a REC where the nop is.
const stopLoopSrc = `
    li   r1, 1024      ; array base
    li   r9, 16        ; trip count
    li   r10, 3
loop:
    ld   r2, 0(r1)
    addi r2, r2, 5
    st   r2, 8(r1)
    nop
    addi r1, r1, 8
    addi r4, r4, 1
    and  r5, r4, r10
    bne  r5, r0, skip  ; falls through every fourth iteration
    addi r6, r6, 1
skip:
    blt  r4, r9, loop
    halt
`

// stopRun is what one run of the stop-point sweep ends with.
type stopRun struct {
	err     string
	pc      int
	stopped bool
	regs    [isa.NumRegs]uint64
	acct    energy.Account
	stores  [][2]uint64
	// replayed is the number of instructions the run retired under replay.
	replayed uint64
}

// endOf collects what a run of env ended with.
func endOf(env *exec.Env, stores [][2]uint64, err error) stopRun {
	r := stopRun{pc: env.PC, stopped: env.Stopped, regs: *env.Regs, acct: *env.Acct, stores: stores}
	if err != nil {
		r.err = err.Error()
	}
	if env.Engine != nil {
		r.replayed = env.Engine.ReplayedInstrs
	}
	return r
}

// TestTracedBudgetParity stops a replayed loop at every instruction: for
// each n up to the end of the run, with the budget (MaxInstrs), a clean
// pause (StopAt) and an injected crash (CrashAt) at n — the checkpoint
// engine's segment and crash boundaries — the run traced at threshold 1
// must end exactly as the untraced one does: error text, final pc,
// Stopped, registers, store stream and account. Replay hands an iteration
// that might not fit back to the interpreter, which stops on the exact
// instruction, so a replayed op that miscounts moves every later stop
// point. The aux variant puts a REC in the body, whose handler retires two
// instructions per call from its sixth call on, more than the trace
// budgets for it.
func TestTracedBudgetParity(t *testing.T) {
	p, err := asm.Parse("stop_loop", stopLoopSrc)
	if err != nil {
		t.Fatal(err)
	}
	code := slices.Clone(p.Code)
	nop := slices.IndexFunc(code, func(in isa.Instr) bool { return in.Op == isa.NOP })
	code[nop] = isa.Instr{Op: isa.REC, Src1: 2, Src2: 1}
	auxP := &isa.Program{Name: "stop_loop_aux", Code: code}
	if err := auxP.Validate(); err != nil {
		t.Fatal(err)
	}
	force := trace.Config{Enable: true, Threshold: 1}
	limits := []struct {
		name string
		set  func(env *exec.Env, n uint64)
	}{
		{"MaxInstrs", func(env *exec.Env, n uint64) { env.MaxInstrs = n }},
		{"StopAt", func(env *exec.Env, n uint64) { env.StopAt = n }},
		{"CrashAt", func(env *exec.Env, n uint64) { env.CrashAt = n }},
	}
	classic := func(tc trace.Config, set func(*exec.Env)) stopRun {
		env := newEnv(tc)
		var stores [][2]uint64
		env.StoreHook = func(addr, val uint64) { stores = append(stores, [2]uint64{addr, val}) }
		set(env)
		return endOf(env, stores, exec.Run(env, p))
	}
	withAux := func(tc trace.Config, set func(*exec.Env)) stopRun {
		var stores [][2]uint64
		env, _, err := runAux(t, auxP, tc, 6, 0, func(env *exec.Env) {
			env.StoreHook = func(addr, val uint64) { stores = append(stores, [2]uint64{addr, val}) }
			set(env)
		})
		return endOf(env, stores, err)
	}
	for _, v := range []struct {
		name string
		run  func(trace.Config, func(*exec.Env)) stopRun
	}{{"classic", classic}, {"aux", withAux}} {
		full := v.run(trace.Config{}, func(*exec.Env) {})
		if full.err != "" {
			t.Fatalf("%s: untraced run: %s", v.name, full.err)
		}
		stoppedUnderReplay := 0
		for n := uint64(1); n <= full.acct.Instrs+1; n++ {
			for _, l := range limits {
				set := func(env *exec.Env) { l.set(env, n) }
				traced, interp := v.run(force, set), v.run(trace.Config{}, set)
				if traced.err != interp.err || traced.pc != interp.pc || traced.stopped != interp.stopped {
					t.Fatalf("%s, %s=%d: traced ends %q at pc %d (stopped %v), untraced %q at pc %d (stopped %v)",
						v.name, l.name, n, traced.err, traced.pc, traced.stopped, interp.err, interp.pc, interp.stopped)
				}
				if traced.regs != interp.regs || traced.acct != interp.acct || !slices.Equal(traced.stores, interp.stores) {
					t.Fatalf("%s, %s=%d: state diverges:\n  traced: regs %v acct %+v stores %v\n  interp: regs %v acct %+v stores %v",
						v.name, l.name, n, traced.regs, traced.acct, traced.stores, interp.regs, interp.acct, interp.stores)
				}
				if traced.replayed > 0 && n <= full.acct.Instrs {
					stoppedUnderReplay++
				}
			}
		}
		if stoppedUnderReplay == 0 {
			t.Fatalf("%s: no stop point came after a replay; the sweep is vacuous", v.name)
		}
	}
}

// TestTraceLinking: a nested loop whose inner trace side-exits into the
// outer advance path. The side-exit target must earn its own lateral trace
// and the guard must chain into it without breaking parity.
func TestTraceLinking(t *testing.T) {
	p, err := asm.Parse("nest", `
    li   r9, 40        ; outer trip count
    li   r8, 30        ; inner trip count
outer:
    li   r2, 0
inner:
    addi r3, r3, 7
    addi r2, r2, 1
    blt  r2, r8, inner
    addi r1, r1, 1
    blt  r1, r9, outer
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	traced, _, tErr := runOnce(p, mem.NewMemory(), 0, 1)
	if tErr != nil {
		t.Fatal(tErr)
	}
	if traced.Engine.Built < 2 {
		t.Fatalf("built %d traces, want the inner loop and a lateral trace at its exit", traced.Engine.Built)
	}
	assertParity(t, "nest", p, mem.NewMemory, 0, 1)
}

// TestFallOffEndParity: a hot loop whose closing branch is the program's
// last instruction side-exits one past the end once the loop is done. The
// traced run must end exactly as the untraced one does, with the
// interpreter's out-of-range error, on the classic core and with an aux
// handler, at the default threshold and at threshold 1.
func TestFallOffEndParity(t *testing.T) {
	p, err := asm.Parse("falloff", `
    li   r2, 100
loop:
    addi r1, r1, 1
    blt  r1, r2, loop
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, th := range []uint32{trace.DefaultConfig().Threshold, 1} {
		traced, _, tErr := runOnce(p, mem.NewMemory(), 0, th)
		if tErr == nil || !strings.Contains(tErr.Error(), "cpu: pc 3 out of range") {
			t.Fatalf("threshold %d: classic error %v, want pc 3 out of range", th, tErr)
		}
		if traced.Engine.ReplayedInstrs == 0 {
			t.Fatalf("threshold %d: the loop never replayed; test is vacuous", th)
		}
		assertParity(t, "falloff", p, mem.NewMemory, 0, th)

		tc := trace.Config{Enable: true, Threshold: th}
		tEnv, _, tErr := runAux(t, p, tc, 0, 0, nil)
		iEnv, _, iErr := runAux(t, p, trace.Config{}, 0, 0, nil)
		if tErr == nil || iErr == nil || tErr.Error() != iErr.Error() {
			t.Fatalf("threshold %d: aux errors diverge:\n  traced: %v\n  interp: %v", th, tErr, iErr)
		}
		if *tEnv.Regs != *iEnv.Regs || *tEnv.Acct != *iEnv.Acct || tEnv.PC != iEnv.PC {
			t.Fatalf("threshold %d: aux state diverges: pc traced %d interp %d", th, tEnv.PC, iEnv.PC)
		}
		if tEnv.Engine.ReplayedInstrs == 0 {
			t.Fatalf("threshold %d: the aux run never replayed; test is vacuous", th)
		}
	}
}
