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

// flipAux is a test Aux handler implementing trace.AuxSigger. Every call
// retires one instruction by counting it into the Account (the aux contract).
// After flipAt REC calls its signatures change epoch and it invalidates
// stale traces through the live engine — the production recipe-change hook,
// fired deterministically mid-run. failRcmpAt, when non-zero, makes that
// RCMP call return an error (the outcome-guard side exit).
type flipAux struct {
	env        *exec.Env
	recCalls   int
	rcmpCalls  int
	flipAt     int
	failRcmpAt int
	epoch      uint64
}

func (a *flipAux) AuxSig(pc int) uint64 { return a.epoch<<8 | uint64(pc) }

func (a *flipAux) ExecRec(pc int) {
	a.env.Acct.Instrs++
	a.recCalls++
	if a.flipAt != 0 && a.recCalls == a.flipAt {
		a.epoch++
		if a.env.Engine != nil {
			a.env.Engine.InvalidateStale(a)
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

// TestTraceAuxMidRunInvalidation: a trace whose body crosses a REC is built,
// replays, and is dropped mid-run when the handler's recipe signature
// changes. The head re-counts from zero, re-records against the new
// signature, and the run stays bit-identical to pure interpretation.
func TestTraceAuxMidRunInvalidation(t *testing.T) {
	// innerN is sized past MaxOps/4 so the outer head cannot record a
	// whole-program superblock (an already-running replay self-chains to
	// completion on live handlers and would hide the drop): control
	// returns to the interpreter between inner-loop bursts, making the
	// invalidation observable at the inner head's next arrival.
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
		t.Fatalf("state diverges across mid-run invalidation:\ntraced %+v\ninterp %+v", *tEnv.Acct, *iEnv.Acct)
	}

	eng := tEnv.Engine
	if eng == nil || eng.Replays == 0 {
		t.Fatalf("vacuous: no replays")
	}
	if eng.Invalidations == 0 {
		t.Fatalf("signature flip invalidated nothing (built=%d)", eng.Built)
	}
	// A head re-earned a trace against the new signature (after the drop
	// the first re-arrival re-counts and re-records): some live trace
	// holds a CRec entry captured at the post-flip epoch.
	if eng.Built < 2 {
		t.Fatalf("built = %d, want >= 2 (re-record after invalidation)", eng.Built)
	}
	found := false
	for _, tr := range eng.Traces {
		if tr == nil || tr.Ops == nil {
			continue
		}
		for _, op := range tr.Ops {
			if op.Code == trace.CRec {
				found = true
				if op.AuxSig != tAux.AuxSig(int(op.PC)) {
					t.Errorf("live CRec sig %#x at head %d, want post-flip %#x", op.AuxSig, tr.Head, tAux.AuxSig(int(op.PC)))
				}
			}
		}
	}
	if !found {
		t.Fatalf("no live trace re-captured the REC site after invalidation")
	}
}

// TestTraceAuxChainAcrossInvalidatedHead: after the mid-run drop, replay
// chains that previously linked into the invalidated head fall back to
// hotness counting (the lateral-head path) instead of replaying a dead
// trace, then link into the rebuilt one. Observable as replays continuing
// to accumulate after the invalidation with unchanged architectural state.
func TestTraceAuxChainAcrossInvalidatedHead(t *testing.T) {
	// The inner loop is long enough (200*4+4 ops > MaxOps) that recording
	// the outer head overruns and tombstones it, so only the inner head
	// holds a trace and the interpreter re-arrives there every outer
	// iteration — the drop is observable at the next arrival, unlike a
	// whole-program superblock whose self-chaining replay (correctly)
	// runs to completion on live handlers.
	prog := auxLoopProgram(t, isa.Instr{Op: isa.REC, Src1: 5, Src2: 6}, 200, 64)
	const flipAt = 6400 // half-way through 200*64 = 12800 REC calls
	force := trace.Config{Enable: true, Threshold: 1}

	tEnv, _, terr := runAux(t, prog, force, flipAt, 0)
	iEnv, _, ierr := runAux(t, prog, trace.Config{}, flipAt, 0)
	if terr != nil || ierr != nil {
		t.Fatalf("runs failed: traced %v interp %v", terr, ierr)
	}
	if *tEnv.Regs != *iEnv.Regs || *tEnv.Acct != *iEnv.Acct {
		t.Fatalf("state diverges across chains crossing the invalidated head")
	}
	eng := tEnv.Engine
	if eng == nil || eng.Invalidations == 0 {
		t.Fatalf("no invalidation fired (engine=%v)", eng)
	}
	if eng.Replays == 0 || eng.ReplayedInstrs == 0 {
		t.Fatalf("no replay activity: %+v", eng)
	}
	// Post-drop execution re-recorded a live aux-crossing trace somewhere
	// (the fallback path re-counts heads instead of replaying dead traces).
	live := 0
	for _, tr := range eng.Traces {
		if tr == nil || tr.Ops == nil {
			continue
		}
		for _, op := range tr.Ops {
			if op.Code == trace.CRec {
				live++
			}
		}
	}
	if live == 0 {
		t.Fatalf("no live aux-crossing trace after chain fallback (built=%d inval=%d)", eng.Built, eng.Invalidations)
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
