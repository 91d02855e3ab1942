package exec_test

import (
	"fmt"
	"testing"

	"github.com/amnesiac-sim/amnesiac/internal/energy"
	"github.com/amnesiac-sim/amnesiac/internal/exec"
	"github.com/amnesiac-sim/amnesiac/internal/isa"
	"github.com/amnesiac-sim/amnesiac/internal/mem"
	"github.com/amnesiac-sim/amnesiac/internal/trace"
)

// auxLoopProgram builds a nested loop whose hot inner body crosses an aux
// opcode (REC or RCMP are not expressible in asm text, so it is assembled
// directly): the inner back-edge head earns a trace containing a CRec/CRcmp
// entry, and the outer loop re-arrives at that head across side exits.
func auxLoopProgram(t *testing.T, auxOp isa.Instr, innerN, outerN int64) *isa.Program {
	t.Helper()
	auxOp.SliceID = 0
	p := &isa.Program{Name: "aux-loop", Code: []isa.Instr{
		{Op: isa.LI, Dst: 1, Imm: 0},            // 0: outer counter
		{Op: isa.LI, Dst: 2, Imm: outerN},       // 1
		{Op: isa.LI, Dst: 3, Imm: 0},            // 2: outer head — inner counter reset
		{Op: isa.LI, Dst: 4, Imm: innerN},       // 3
		auxOp,                                   // 4: inner head
		{Op: isa.ADDI, Dst: 3, Src1: 3, Imm: 1}, // 5
		{Op: isa.ADDI, Dst: 5, Src1: 5, Imm: 1}, // 6: work the replay covers
		{Op: isa.BLT, Src1: 3, Src2: 4, Imm: 4}, // 7: inner back-edge
		{Op: isa.ADDI, Dst: 1, Src1: 1, Imm: 1}, // 8
		{Op: isa.BLT, Src1: 1, Src2: 2, Imm: 2}, // 9: outer back-edge
		{Op: isa.HALT},                          // 10
	}}
	if err := p.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	return p
}

// flipAux is a test Aux handler. Every call retires instructions by
// counting them into the Account (the aux contract): one per call, and two
// per REC from the flipAt-th REC call on, a mid-run change in what the
// handler does, as a slice that fails mid-run changes what its RCMPs do.
// failRcmpAt, when non-zero, makes that RCMP call return an error (the
// outcome-guard side exit).
type flipAux struct {
	env        *exec.Env
	recCalls   int
	rcmpCalls  int
	flipAt     int
	failRcmpAt int
	// The engine's replay and build counts when the change happened.
	replaysAtFlip, builtAtFlip uint64
}

func (a *flipAux) ExecRec(pc int) {
	a.env.Acct.Instrs++
	a.recCalls++
	if a.flipAt != 0 && a.recCalls >= a.flipAt {
		a.env.Acct.Instrs++
		if a.recCalls == a.flipAt && a.env.Engine != nil {
			a.replaysAtFlip, a.builtAtFlip = a.env.Engine.Replays, a.env.Engine.Built
		}
	}
}

func (a *flipAux) ExecRcmp(pc int) error {
	a.env.Acct.Instrs++
	a.rcmpCalls++
	if a.failRcmpAt != 0 && a.rcmpCalls == a.failRcmpAt {
		return fmt.Errorf("amnesic: pc %d: injected rcmp failure", pc)
	}
	return nil
}

func (a *flipAux) StrayRtn(pc int) error { return fmt.Errorf("amnesic: pc %d: stray rtn", pc) }

// runAux executes p with a flipAux handler under the given trace config,
// returning the env, the handler, and the run error.
func runAux(t *testing.T, p *isa.Program, tc trace.Config, flipAt, failRcmpAt int) (*exec.Env, *flipAux, error) {
	t.Helper()
	var regs [isa.NumRegs]uint64
	var acct energy.Account
	env := &exec.Env{
		Model: energy.Default(),
		Hier:  mem.NewDefaultHierarchy(),
		Mem:   mem.NewMemory(),
		Regs:  &regs,
		Acct:  &acct,
		Trace: tc,
	}
	aux := &flipAux{env: env, flipAt: flipAt, failRcmpAt: failRcmpAt}
	env.Aux = aux
	err := exec.Run(env, p)
	return env, aux, err
}

// TestTraceAuxMidRunHandlerChange: a trace whose body crosses a REC holds
// no handler state, so when the handler starts retiring more per REC
// mid-run, the trace keeps replaying — no drop, no re-record — and the run
// stays bit-identical to pure interpretation.
func TestTraceAuxMidRunHandlerChange(t *testing.T) {
	// innerN is sized past MaxOps/4 so the outer head cannot record a
	// whole-program superblock: control returns to the interpreter between
	// inner-loop bursts, and each burst after the change enters the inner
	// trace afresh.
	prog := auxLoopProgram(t, isa.Instr{Op: isa.REC, Src1: 5, Src2: 6}, 200, 32)
	const flipAt = 3200 // mid-run: half-way through 200*32 REC calls
	force := trace.Config{Enable: true, Threshold: 1}

	tEnv, tAux, terr := runAux(t, prog, force, flipAt, 0)
	iEnv, iAux, ierr := runAux(t, prog, trace.Config{}, flipAt, 0)
	if terr != nil || ierr != nil {
		t.Fatalf("runs failed: traced %v interp %v", terr, ierr)
	}
	if tAux.recCalls != iAux.recCalls || tAux.recCalls != 200*32 {
		t.Fatalf("rec calls diverge: traced %d interp %d, want %d", tAux.recCalls, iAux.recCalls, 200*32)
	}
	if *tEnv.Regs != *iEnv.Regs || *tEnv.Acct != *iEnv.Acct || tEnv.PC != iEnv.PC {
		t.Fatalf("state diverges across the mid-run handler change:\ntraced %+v\ninterp %+v", *tEnv.Acct, *iEnv.Acct)
	}

	eng := tEnv.Engine
	if eng == nil || tAux.replaysAtFlip == 0 || eng.Replays <= tAux.replaysAtFlip {
		t.Fatalf("vacuous: no replay on both sides of the change (replays at the change %d, engine %+v)", tAux.replaysAtFlip, eng)
	}
	if eng.Built != tAux.builtAtFlip {
		t.Fatalf("built %d traces after the change, %d before: want no re-record", eng.Built, tAux.builtAtFlip)
	}
	crossing := 0
	for _, tr := range eng.Traces() {
		for _, op := range tr.Ops {
			if op.Code == trace.CRec {
				crossing++
			}
		}
	}
	if crossing == 0 {
		t.Fatalf("no trace crossed the REC site (built=%d)", eng.Built)
	}
}

// TestTraceAuxRcmpErrorParity: an RCMP whose handler errors mid-replay must
// side-exit with exactly the interpreter's error, program counter, and
// account — the outcome guard on aux replay.
func TestTraceAuxRcmpErrorParity(t *testing.T) {
	prog := auxLoopProgram(t, isa.Instr{Op: isa.RCMP, Dst: 7, Src1: 5, Target: 0}, 64, 32)
	const failAt = 777 // deep inside hot replay of the inner loop
	force := trace.Config{Enable: true, Threshold: 1}

	tEnv, tAux, terr := runAux(t, prog, force, 0, failAt)
	iEnv, iAux, ierr := runAux(t, prog, trace.Config{}, 0, failAt)
	if terr == nil || ierr == nil {
		t.Fatalf("injected rcmp failure not surfaced: traced %v interp %v", terr, ierr)
	}
	if terr.Error() != ierr.Error() {
		t.Fatalf("errors diverge:\ntraced %v\ninterp %v", terr, ierr)
	}
	if tAux.rcmpCalls != iAux.rcmpCalls || tAux.rcmpCalls != failAt {
		t.Fatalf("rcmp calls diverge: traced %d interp %d, want %d", tAux.rcmpCalls, iAux.rcmpCalls, failAt)
	}
	if *tEnv.Regs != *iEnv.Regs || *tEnv.Acct != *iEnv.Acct || tEnv.PC != iEnv.PC {
		t.Fatalf("state diverges at the outcome-guard exit: pc traced %d interp %d", tEnv.PC, iEnv.PC)
	}
	if eng := tEnv.Engine; eng == nil || eng.Replays == 0 {
		t.Fatalf("vacuous: the failure did not occur under replay (%+v)", eng)
	}
}
