package trace_test

import (
	"testing"

	"github.com/amnesiac-sim/amnesiac/internal/asm"
	"github.com/amnesiac-sim/amnesiac/internal/isa"
	"github.com/amnesiac-sim/amnesiac/internal/trace"
)

func mustParse(t *testing.T, src string) *isa.Decoded {
	t.Helper()
	p, err := asm.Parse("trace_test", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p.Decoded()
}

// TestBuildFusesPairs checks the three superinstruction patterns on the
// canonical loop body: load feeding an ALU op, ALU result being stored, and
// the increment-and-loop-close compare.
func TestBuildFusesPairs(t *testing.T) {
	d := mustParse(t, `
loop:
    ld   r2, 0(r1)
    add  r3, r2, r2
    addi r4, r3, 8
    st   r4, 0(r1)
    addi r5, r5, 1
    blt  r5, r6, loop
    halt
`)
	path := []int32{0, 1, 2, 3, 4, 5}
	tr := trace.Build(d, path, nil, nil)
	if tr.Head != 0 || tr.NInstr != 6 {
		t.Fatalf("head=%d ninstr=%d, want 0/6", tr.Head, tr.NInstr)
	}
	if len(tr.Ops) != 3 {
		t.Fatalf("got %d ops, want 3 fused: %+v", len(tr.Ops), tr.Ops)
	}
	la := tr.Ops[0]
	if la.Code != trace.CLoadAlu || la.Fwd != 3 || la.PC != 0 || la.PC2 != 1 {
		t.Errorf("op0 = %+v, want CLoadAlu fwd=3 pcs 0,1", la)
	}
	as := tr.Ops[1]
	if as.Code != trace.CAluStore || as.Fwd != 2 || as.PC != 2 || as.PC2 != 3 {
		t.Errorf("op1 = %+v, want CAluStore fwd=2 pcs 2,3", as)
	}
	ag := tr.Ops[2]
	if ag.Code != trace.CAluGuard || ag.Fwd != 1 || !ag.Taken || ag.ExitPC != 6 {
		t.Errorf("op2 = %+v, want CAluGuard fwd=1 taken exit=6", ag)
	}
}

// TestBuildGuardDirections: a conditional branch recorded as not-taken
// guards on the fallthrough and side-exits at the branch target; an
// unconditional jump inside the path becomes a charge-only op.
func TestBuildGuardDirections(t *testing.T) {
	d := mustParse(t, `
loop:
    addi r5, r5, 1
    beq  r5, r7, out
    add  r2, r2, r2
    jmp  loop
out:
    halt
`)
	path := []int32{0, 1, 2, 3}
	tr := trace.Build(d, path, nil, nil)
	if len(tr.Ops) != 3 {
		t.Fatalf("got %d ops, want 3: %+v", len(tr.Ops), tr.Ops)
	}
	ag := tr.Ops[0]
	if ag.Code != trace.CAluGuard || ag.Taken || ag.ExitPC != 4 {
		t.Errorf("op0 = %+v, want CAluGuard not-taken exit=4", ag)
	}
	if tr.Ops[1].Code != trace.CAdd {
		t.Errorf("op1 = %+v, want CAdd", tr.Ops[1])
	}
	if tr.Ops[2].Code != trace.CBrCharge {
		t.Errorf("op2 = %+v, want CBrCharge (jmp charges, no guard)", tr.Ops[2])
	}
}

// TestBuildNoFuseThroughR0: an ALU op writing R0 must not forward its
// result (R0 reads back as zero), so the pair stays unfused.
func TestBuildNoFuseThroughR0(t *testing.T) {
	d := mustParse(t, `
    add r0, r1, r1
    st  r0, 0(r1)
    halt
`)
	tr := trace.Build(d, []int32{0, 1}, nil, nil)
	if len(tr.Ops) != 2 || tr.Ops[0].Code != trace.CAdd || tr.Ops[1].Code != trace.CStore {
		t.Fatalf("ops = %+v, want unfused CAdd, CStore", tr.Ops)
	}
}

// TestEngineLifecycle walks one head through detection, recording and
// replay: arrivals below the threshold only count, the threshold opens a
// recording, recording steps grow the path until control is back at the
// head, and the built trace is what later arrivals replay. An arrival past
// the program end never records.
func TestEngineLifecycle(t *testing.T) {
	d := mustParse(t, `
loop:
    addi r5, r5, 1
    blt  r5, r6, loop
    halt
`)
	eng := trace.NewEngine(trace.Config{Enable: true, Threshold: 3}, d, nil, nil, false)
	for i := 0; i < 2; i++ {
		if got := eng.Arrive(0); got != trace.Interpret || eng.Recording() {
			t.Fatalf("arrival %d = %d (recording %v), want Interpret below the threshold", i+1, got, eng.Recording())
		}
	}
	if got := eng.Arrive(0); got != trace.Record || !eng.Recording() {
		t.Fatalf("threshold arrival = %d, want Record", got)
	}
	for _, pc := range []int{0, 1} {
		if got := eng.Step(pc); got != trace.Record {
			t.Fatalf("step at %d = %d, want Record", pc, got)
		}
	}
	if got := eng.Step(0); got != trace.Replay || eng.Recording() {
		t.Fatalf("step back at the head = %d, want Replay with the recording closed", got)
	}
	tr := eng.Head(0)
	if tr == nil || tr.NInstr != 2 || eng.Built != 1 || len(eng.Path()) != 2 {
		t.Fatalf("built trace %+v, built %d, path %v: want one 2-instruction trace", tr, eng.Built, eng.Path())
	}
	if got := eng.Arrive(0); got != trace.Replay || eng.Head(0) != tr {
		t.Fatalf("arrival at a built head = %d, want Replay of the same trace", got)
	}
	if got := eng.Traces(); len(got) != 1 || got[0] != tr {
		t.Fatalf("Traces() = %v, want the one built trace", got)
	}
	// A side exit off the last instruction arrives one past the end: it
	// finds no trace and opens no recording, whatever the count.
	for i := 0; i < 4; i++ {
		if got := eng.Arrive(d.Len()); got != trace.Interpret || eng.Recording() {
			t.Fatalf("arrival past the end = %d (recording %v), want Interpret", got, eng.Recording())
		}
	}
}

// TestBlacklistTombstone: an unrecordable instruction or a path past MaxOps
// blacklists the recording head with a tombstone — never replayed, never
// re-counted, never recorded again.
func TestBlacklistTombstone(t *testing.T) {
	d := mustParse(t, `
loop:
    addi r5, r5, 1
    addi r4, r4, 1
    blt  r5, r6, loop
    halt
`)
	// HALT on the path: unrecordable.
	eng := trace.NewEngine(trace.Config{Enable: true, Threshold: 1}, d, nil, nil, false)
	eng.Arrive(0)
	eng.Step(0)
	if got := eng.Step(3); got != trace.Interpret || eng.Recording() || eng.Blacklisted != 1 {
		t.Fatalf("step at HALT = %d (recording %v, blacklisted %d), want the head blacklisted", got, eng.Recording(), eng.Blacklisted)
	}
	for i := 0; i < 4; i++ {
		if got := eng.Arrive(0); got != trace.Interpret || eng.Recording() {
			t.Fatalf("arrival at a tombstone = %d (recording %v), want Interpret", got, eng.Recording())
		}
	}
	if eng.Built != 0 || len(eng.Traces()) != 0 {
		t.Fatalf("built %d, traces %v: a tombstone is no trace", eng.Built, eng.Traces())
	}

	// A path past MaxOps.
	eng = trace.NewEngine(trace.Config{Enable: true, Threshold: 1, MaxOps: 2}, d, nil, nil, false)
	eng.Arrive(0)
	eng.Step(0)
	eng.Step(1)
	if got := eng.Step(2); got != trace.Interpret || eng.Blacklisted != 1 || eng.Arrive(0) != trace.Interpret {
		t.Fatalf("step past MaxOps = %d (blacklisted %d), want the head blacklisted", got, eng.Blacklisted)
	}
}

// auxProgram builds a decoded program whose loop body crosses a REC and an
// RCMP (not expressible in asm text): addi, rec, rcmp, blt back to head.
func auxProgram(t *testing.T) *isa.Decoded {
	t.Helper()
	p := &isa.Program{Name: "aux-loop", Code: []isa.Instr{
		{Op: isa.ADDI, Dst: 5, Src1: 5, Imm: 1},
		{Op: isa.REC, SliceID: 0, Src1: 5, Src2: 6},
		{Op: isa.RCMP, Dst: 7, Src1: 5, SliceID: 0, Target: 0},
		{Op: isa.BLT, Src1: 5, Src2: 6, Imm: 0},
		{Op: isa.HALT},
	}}
	if err := p.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	return p.Decoded()
}

// TestBuildCapturesAuxSigs: REC/RCMP become CRec/CRcmp entries, which
// replay through the run's live aux handler; they are fusion barriers.
func TestBuildCapturesAuxSigs(t *testing.T) {
	d := auxProgram(t)
	tr := trace.Build(d, []int32{0, 1, 2, 3}, nil, nil)
	if len(tr.Ops) != 4 {
		t.Fatalf("got %d ops, want 4 (aux ops are fusion barriers): %+v", len(tr.Ops), tr.Ops)
	}
	if tr.Ops[1].Code != trace.CRec {
		t.Errorf("op1 = %+v, want CRec", tr.Ops[1])
	}
	if tr.Ops[2].Code != trace.CRcmp {
		t.Errorf("op2 = %+v, want CRcmp", tr.Ops[2])
	}
	if tr.Ops[3].Code != trace.CGuard {
		t.Errorf("op3 = %+v, want unfused CGuard (CRcmp is no ALU)", tr.Ops[3])
	}
}

// TestRecordableAux: an aux handler widens recordability by exactly REC
// and RCMP; RTN stays unrecordable either way.
func TestRecordableAux(t *testing.T) {
	for k := isa.Kind(0); k < isa.KindBad; k++ {
		plain, aux := trace.Recordable(k, false), trace.Recordable(k, true)
		switch k {
		case isa.KindRec, isa.KindRcmp:
			if plain || !aux {
				t.Errorf("kind %d: plain=%v aux=%v, want false/true", k, plain, aux)
			}
		default:
			if plain != aux {
				t.Errorf("kind %d: plain=%v aux=%v, want equal outside REC/RCMP", k, plain, aux)
			}
		}
	}
	if trace.Recordable(isa.KindRtn, true) {
		t.Errorf("RTN must stay unrecordable")
	}
}

// TestBatchDeadCharges: NBat pre-sums maximal batchable runs — memory and
// aux ops are breakers that count positionally (weight 0), a guard
// terminates its run inclusively (ALU+branch fusions weigh 2), and interior
// ops stay 0. The per-trace invariant: head NBat weights plus positional
// breaker counts equal NInstr.
func TestBatchDeadCharges(t *testing.T) {
	// Straight ALU run closed by a fused compare-and-branch: one batch.
	d := mustParse(t, `
loop:
    addi r2, r2, 1
    addi r3, r3, 2
    addi r5, r5, 1
    blt  r5, r6, loop
    halt
`)
	tr := trace.Build(d, []int32{0, 1, 2, 3}, nil, nil)
	if len(tr.Ops) != 3 {
		t.Fatalf("got %d ops, want 3: %+v", len(tr.Ops), tr.Ops)
	}
	if got := []uint32{tr.Ops[0].NBat, tr.Ops[1].NBat, tr.Ops[2].NBat}; got[0] != 4 || got[1] != 0 || got[2] != 0 {
		t.Errorf("NBat = %v, want [4 0 0] (addi+addi+CAluGuard(2) batched at the head)", got)
	}

	// A guard mid-trace terminates its run inclusively; the ops after the
	// potential side exit start a new run.
	d2 := mustParse(t, `
loop:
    addi r5, r5, 1
    beq  r5, r7, out
    add  r2, r2, r2
    jmp  loop
out:
    halt
`)
	tr2 := trace.Build(d2, []int32{0, 1, 2, 3}, nil, nil)
	if len(tr2.Ops) != 3 {
		t.Fatalf("got %d ops, want 3: %+v", len(tr2.Ops), tr2.Ops)
	}
	if got := []uint32{tr2.Ops[0].NBat, tr2.Ops[1].NBat, tr2.Ops[2].NBat}; got[0] != 2 || got[1] != 2 || got[2] != 0 {
		t.Errorf("NBat = %v, want [2 2 0] (guard closes run; add+jmp batch after the exit)", got)
	}

	// Memory and aux ops break runs and contribute nothing.
	d3 := auxProgram(t)
	tr3 := trace.Build(d3, []int32{0, 1, 2, 3}, nil, nil)
	if got := []uint32{tr3.Ops[0].NBat, tr3.Ops[1].NBat, tr3.Ops[2].NBat, tr3.Ops[3].NBat}; got[0] != 1 || got[1] != 0 || got[2] != 0 || got[3] != 1 {
		t.Errorf("NBat = %v, want [1 0 0 1] (aux ops are weight-0 breakers)", got)
	}

	// Observer ops retire nothing and end the run before them.
	tr4 := trace.Build(d, []int32{0, 1, 2, 3}, nil, []bool{false, false, true, false, false})
	if got := []uint32{tr4.Ops[0].NBat, tr4.Ops[1].NBat, tr4.Ops[2].NBat, tr4.Ops[3].NBat}; got[0] != 2 || got[1] != 0 || got[2] != 0 || got[3] != 2 {
		t.Errorf("NBat = %v, want [2 0 0 2] (CWatch splits the run)", got)
	}

	// Invariant on every built trace: batched weights + positional breakers
	// retire exactly NInstr original instructions.
	for _, c := range []*trace.Trace{tr, tr2, tr3, tr4} {
		var sum, width uint64
		for _, op := range c.Ops {
			sum += uint64(op.NBat)
			width += uint64(op.Code.Width())
			switch op.Code {
			case trace.CLoad, trace.CStore, trace.CRec, trace.CRcmp:
				sum++
			case trace.CLoadAlu, trace.CAluStore:
				sum += 2
			}
		}
		if sum != c.NInstr || width != c.NInstr {
			t.Errorf("trace head %d: batched+positional = %d, widths = %d, want NInstr %d", c.Head, sum, width, c.NInstr)
		}
	}
}

// TestBuildObserverOps: a watched PC gets a CWatch op just before its own
// op, carrying the watched pc. The observer op keeps its neighbours from
// fusing across it, so the observer sees the state before its instruction.
func TestBuildObserverOps(t *testing.T) {
	d := mustParse(t, `
loop:
    ld   r2, 0(r1)
    add  r3, r2, r2
    addi r5, r5, 1
    blt  r5, r6, loop
    halt
`)
	tr := trace.Build(d, []int32{0, 1, 2, 3}, nil, []bool{false, true, false, true, false})
	want := []trace.Code{trace.CLoad, trace.CWatch, trace.CAdd, trace.CAddi, trace.CWatch, trace.CGuard}
	if len(tr.Ops) != len(want) || tr.NInstr != 4 {
		t.Fatalf("got %d ops, NInstr %d: %+v", len(tr.Ops), tr.NInstr, tr.Ops)
	}
	for i, c := range want {
		if tr.Ops[i].Code != c {
			t.Errorf("op%d = %+v, want code %d", i, tr.Ops[i], c)
		}
	}
	if tr.Ops[1].PC != 1 || tr.Ops[4].PC != 3 {
		t.Errorf("observer pcs %d/%d, want 1/3", tr.Ops[1].PC, tr.Ops[4].PC)
	}
	// Unwatched, the same path fuses into two pairs.
	if plain := trace.Build(d, []int32{0, 1, 2, 3}, nil, nil); len(plain.Ops) != 2 {
		t.Errorf("unwatched build: %d ops, want 2 fused", len(plain.Ops))
	}
}
