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
	tr := trace.Build(d, path, nil, nil, nil)
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
	tr := trace.Build(d, path, nil, nil, nil)
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
	tr := trace.Build(d, []int32{0, 1}, nil, nil, nil)
	if len(tr.Ops) != 2 || tr.Ops[0].Code != trace.CAdd || tr.Ops[1].Code != trace.CStore {
		t.Fatalf("ops = %+v, want unfused CAdd, CStore", tr.Ops)
	}
}

// TestBlacklistTombstone: a blacklisted head is a non-nil trace with nil
// Ops — never replayed, never re-counted — until Invalidate resets it.
func TestBlacklistTombstone(t *testing.T) {
	eng := trace.NewEngine(trace.Config{Enable: true}, 8)
	eng.Counts[3] = 7
	eng.Blacklist(3)
	if tr := eng.Traces[3]; tr == nil || tr.Ops != nil {
		t.Fatalf("tombstone = %+v, want non-nil trace with nil ops", eng.Traces[3])
	}
	if eng.Blacklisted != 1 {
		t.Fatalf("blacklisted = %d, want 1", eng.Blacklisted)
	}
	eng.Invalidate(3)
	if eng.Traces[3] != nil || eng.Counts[3] != 0 {
		t.Fatalf("invalidate left traces[3]=%v counts[3]=%d", eng.Traces[3], eng.Counts[3])
	}
}

// TestInvalidateRecounts: after a tombstone (or trace) is dropped, the head
// counts hotness from zero and can hold a freshly built trace again — the
// re-record path behind recipe-change invalidation.
func TestInvalidateRecounts(t *testing.T) {
	d := mustParse(t, `
loop:
    addi r5, r5, 1
    blt  r5, r6, loop
    halt
`)
	eng := trace.NewEngine(trace.Config{Enable: true, Threshold: 4}, 8)
	eng.Counts[0] = 9
	eng.Blacklist(0)
	eng.Invalidate(0)
	if eng.Counts[0] != 0 {
		t.Fatalf("counts[0] = %d after invalidate, want 0 (re-count from scratch)", eng.Counts[0])
	}
	// The head re-earns its trace: count back up and install a real build.
	for i := uint32(0); i < 4; i++ {
		eng.Counts[0]++
	}
	tr := trace.Build(d, []int32{0, 1}, nil, nil, nil)
	eng.Traces[0] = tr
	eng.Built++
	if got := eng.Traces[0]; got == nil || got.Ops == nil {
		t.Fatalf("rebuilt trace = %+v, want live trace after tombstone drop", got)
	}
	if eng.Blacklisted != 1 || eng.Built != 1 {
		t.Fatalf("blacklisted=%d built=%d, want 1/1", eng.Blacklisted, eng.Built)
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

// sigmap is a test AuxSigger answering from a mutable map.
type sigmap map[int]uint64

func (s sigmap) AuxSig(pc int) uint64 { return s[pc] }

// TestBuildCapturesAuxSigs: REC/RCMP become CRec/CRcmp entries holding the
// signature the sigger answered at record time.
func TestBuildCapturesAuxSigs(t *testing.T) {
	d := auxProgram(t)
	sig := sigmap{1: 0xAB, 2: 0xCD}
	tr := trace.Build(d, []int32{0, 1, 2, 3}, nil, nil, sig)
	if len(tr.Ops) != 4 {
		t.Fatalf("got %d ops, want 4 (aux ops are fusion barriers): %+v", len(tr.Ops), tr.Ops)
	}
	if tr.Ops[1].Code != trace.CRec || tr.Ops[1].AuxSig != 0xAB {
		t.Errorf("op1 = %+v, want CRec sig 0xAB", tr.Ops[1])
	}
	if tr.Ops[2].Code != trace.CRcmp || tr.Ops[2].AuxSig != 0xCD {
		t.Errorf("op2 = %+v, want CRcmp sig 0xCD", tr.Ops[2])
	}
	if tr.Ops[3].Code != trace.CGuard {
		t.Errorf("op3 = %+v, want unfused CGuard (CRcmp is no ALU)", tr.Ops[3])
	}
}

// TestRecordableAux: the aux set widens recordability by exactly REC and
// RCMP; RTN stays unrecordable under both predicates.
func TestRecordableAux(t *testing.T) {
	for k := isa.Kind(0); k < isa.KindBad; k++ {
		plain, aux := trace.Recordable(k), trace.RecordableAux(k)
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
	if trace.RecordableAux(isa.KindRtn) {
		t.Errorf("RTN must stay unrecordable")
	}
}

// TestInvalidateStale: only traces holding an aux site whose live signature
// changed are dropped; the head re-counts from zero, and a later
// InvalidateStale with no further changes is a no-op.
func TestInvalidateStale(t *testing.T) {
	d := auxProgram(t)
	sig := sigmap{1: 0xAB, 2: 0xCD}
	eng := trace.NewEngine(trace.Config{Enable: true}, 8)

	aux := trace.Build(d, []int32{0, 1, 2, 3}, nil, nil, sig)
	eng.Traces[0] = aux
	eng.RegisterAuxSites(aux)

	// A plain trace (no aux ops) at another head must survive any recipe
	// change.
	dp := mustParse(t, `
loop:
    addi r5, r5, 1
    blt  r5, r6, loop
    halt
`)
	plain := trace.Build(dp, []int32{0, 1}, nil, nil, nil)
	eng.Traces[2] = plain
	eng.RegisterAuxSites(plain)

	eng.Counts[0] = 5
	eng.InvalidateStale(sig) // signatures unchanged: nothing drops
	if eng.Traces[0] == nil || eng.Invalidations != 0 || eng.Counts[0] != 5 {
		t.Fatalf("unchanged sigs invalidated: traces[0]=%v inv=%d counts=%d",
			eng.Traces[0], eng.Invalidations, eng.Counts[0])
	}

	sig[2] = 0xCF // the RCMP site's recipe state changed (failed bit)
	eng.InvalidateStale(sig)
	if eng.Traces[0] != nil || eng.Counts[0] != 0 {
		t.Fatalf("stale trace survived: traces[0]=%v counts=%d", eng.Traces[0], eng.Counts[0])
	}
	if eng.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", eng.Invalidations)
	}
	if eng.Traces[2] == nil {
		t.Fatalf("plain trace dropped by aux invalidation")
	}

	// The dropped head's sites are gone: re-signing is a no-op until a
	// rebuild re-registers them.
	eng.InvalidateStale(sigmap{1: 1, 2: 2})
	if eng.Invalidations != 1 {
		t.Fatalf("invalidations = %d after drop, want still 1", eng.Invalidations)
	}

	// Rebuild against the live signatures: the head is valid again and a
	// further unchanged re-sign keeps it.
	aux2 := trace.Build(d, []int32{0, 1, 2, 3}, nil, nil, sig)
	eng.Traces[0] = aux2
	eng.RegisterAuxSites(aux2)
	eng.InvalidateStale(sig)
	if eng.Traces[0] == nil || eng.Invalidations != 1 {
		t.Fatalf("rebuilt trace dropped: traces[0]=%v inv=%d", eng.Traces[0], eng.Invalidations)
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
	tr := trace.Build(d, []int32{0, 1, 2, 3}, nil, nil, nil)
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
	tr2 := trace.Build(d2, []int32{0, 1, 2, 3}, nil, nil, nil)
	if len(tr2.Ops) != 3 {
		t.Fatalf("got %d ops, want 3: %+v", len(tr2.Ops), tr2.Ops)
	}
	if got := []uint32{tr2.Ops[0].NBat, tr2.Ops[1].NBat, tr2.Ops[2].NBat}; got[0] != 2 || got[1] != 2 || got[2] != 0 {
		t.Errorf("NBat = %v, want [2 2 0] (guard closes run; add+jmp batch after the exit)", got)
	}

	// Memory and aux ops break runs and contribute nothing.
	d3 := auxProgram(t)
	tr3 := trace.Build(d3, []int32{0, 1, 2, 3}, nil, nil, sigmap{})
	if got := []uint32{tr3.Ops[0].NBat, tr3.Ops[1].NBat, tr3.Ops[2].NBat, tr3.Ops[3].NBat}; got[0] != 1 || got[1] != 0 || got[2] != 0 || got[3] != 1 {
		t.Errorf("NBat = %v, want [1 0 0 1] (aux ops are weight-0 breakers)", got)
	}

	// Observer ops retire nothing and end the run before them.
	tr4 := trace.Build(d, []int32{0, 1, 2, 3}, nil, []bool{false, false, true, false, false}, nil)
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
	tr := trace.Build(d, []int32{0, 1, 2, 3}, nil, []bool{false, true, false, true, false}, nil)
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
	if plain := trace.Build(d, []int32{0, 1, 2, 3}, nil, nil, nil); len(plain.Ops) != 2 {
		t.Errorf("unwatched build: %d ops, want 2 fused", len(plain.Ops))
	}
}
