package exec_test

import (
	"strings"
	"testing"

	"github.com/amnesiac-sim/amnesiac/internal/asm"
	"github.com/amnesiac-sim/amnesiac/internal/cpu"
	"github.com/amnesiac-sim/amnesiac/internal/energy"
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

// TestTracedBudgetParity exhausts the instruction budget mid-replay and
// checks the traced run stops on the same instruction with the same error
// as the interpreter (replay returns to the interpreter when the next
// iteration might not fit, so the final partial iteration retires there).
func TestTracedBudgetParity(t *testing.T) {
	p, err := asm.Parse("spin", `
loop:
    addi r1, r1, 1
    addi r2, r2, 3
    xor  r3, r1, r2
    jmp  loop
`)
	if err != nil {
		t.Fatal(err)
	}
	traced, _, tErr := runOnce(p, mem.NewMemory(), 1000, 1)
	if tErr == nil {
		t.Fatal("traced run did not hit the budget")
	}
	if traced.Engine.Replays == 0 {
		t.Fatal("budget was not hit under replay; test is vacuous")
	}
	assertParity(t, "spin", p, mem.NewMemory, 1000, 1)
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
		tEnv, _, tErr := runAux(t, p, tc, 0, 0)
		iEnv, _, iErr := runAux(t, p, trace.Config{}, 0, 0)
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
