package trace_test

import (
	"strings"
	"testing"
	"unsafe"

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

// TestBuildOneOpPerInstruction: every recorded instruction becomes one op,
// in path order, carrying its own pc, operands and category, so each op
// retires exactly one of the trace's NInstr instructions. A guard keeps its
// branch opcode and operands in the op's own fields. An op is 24 bytes.
func TestBuildOneOpPerInstruction(t *testing.T) {
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
	tr := trace.Build(d, []int32{0, 1, 2, 3, 4, 5}, nil, nil)
	if tr.Head != 0 || tr.NInstr != 6 {
		t.Fatalf("head=%d ninstr=%d, want 0/6", tr.Head, tr.NInstr)
	}
	want := []trace.Code{trace.CLoad, trace.CAdd, trace.CAddi, trace.CStore, trace.CAddi, trace.CGuard}
	if len(tr.Ops) != len(want) {
		t.Fatalf("got %d ops, want %d: %+v", len(tr.Ops), len(want), tr.Ops)
	}
	for i, c := range want {
		if op := tr.Ops[i]; op.Code != c || op.PC != int32(i) || op.Cat != d.Cat[i] {
			t.Errorf("op%d = %+v, want code %d at pc %d", i, op, c, i)
		}
	}
	if st := tr.Ops[3]; st.Src1 != 1 || st.Src2 != 4 || st.Imm != 0 {
		t.Errorf("store = %+v, want base r1, value r4", st)
	}
	g := tr.Ops[5]
	if g.AOp != isa.BLT || g.Src1 != 5 || g.Src2 != 6 || !g.Taken || g.ExitPC != 6 {
		t.Errorf("guard = %+v, want blt r5, r6 taken, exit 6", g)
	}
	if sz := unsafe.Sizeof(trace.Op{}); sz > 24 {
		t.Errorf("trace.Op is %d bytes, want at most 24", sz)
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
	if len(tr.Ops) != 4 {
		t.Fatalf("got %d ops, want 4: %+v", len(tr.Ops), tr.Ops)
	}
	if tr.Ops[0].Code != trace.CAddi {
		t.Errorf("op0 = %+v, want CAddi", tr.Ops[0])
	}
	g := tr.Ops[1]
	if g.Code != trace.CGuard || g.AOp != isa.BEQ || g.Src1 != 5 || g.Src2 != 7 || g.Taken || g.ExitPC != 4 {
		t.Errorf("op1 = %+v, want CGuard beq r5, r7 not-taken exit=4", g)
	}
	if tr.Ops[2].Code != trace.CAdd {
		t.Errorf("op2 = %+v, want CAdd", tr.Ops[2])
	}
	if tr.Ops[3].Code != trace.CBrCharge {
		t.Errorf("op3 = %+v, want CBrCharge (jmp charges, no guard)", tr.Ops[3])
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

// TestBlacklistTombstone: an unrecordable instruction or a path past the
// 512-instruction bound blacklists the recording head with a tombstone —
// never replayed, never re-counted, never recorded again.
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

	// A loop body of 512 instructions records; one of 513 blacklists at
	// its 513th step.
	for _, body := range []int{512, 513} {
		src := "loop:\n" + strings.Repeat("    addi r4, r4, 1\n", body-1) + "    blt r5, r6, loop\n    halt\n"
		d := mustParse(t, src)
		eng := trace.NewEngine(trace.Config{Enable: true, Threshold: 1}, d, nil, nil, false)
		eng.Arrive(0)
		for pc := 0; pc < body; pc++ {
			got := eng.Step(pc)
			if pc < 512 && got != trace.Record {
				t.Fatalf("body %d: step %d = %d, want Record", body, pc, got)
			}
			if pc == 512 && (got != trace.Interpret || eng.Blacklisted != 1 || eng.Arrive(0) != trace.Interpret) {
				t.Fatalf("body %d: step past the bound = %d (blacklisted %d), want the head blacklisted", body, got, eng.Blacklisted)
			}
		}
		if body == 512 {
			if got := eng.Step(0); got != trace.Replay || eng.Head(0).NInstr != 512 {
				t.Fatalf("body 512: closing step = %d, want a 512-instruction trace", got)
			}
		}
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
// replay through the run's live aux handler, each at its own pc.
func TestBuildCapturesAuxSigs(t *testing.T) {
	d := auxProgram(t)
	tr := trace.Build(d, []int32{0, 1, 2, 3}, nil, nil)
	if len(tr.Ops) != 4 {
		t.Fatalf("got %d ops, want 4: %+v", len(tr.Ops), tr.Ops)
	}
	if tr.Ops[1].Code != trace.CRec || tr.Ops[1].PC != 1 {
		t.Errorf("op1 = %+v, want CRec at pc 1", tr.Ops[1])
	}
	if tr.Ops[2].Code != trace.CRcmp || tr.Ops[2].PC != 2 {
		t.Errorf("op2 = %+v, want CRcmp at pc 2", tr.Ops[2])
	}
	if tr.Ops[3].Code != trace.CGuard {
		t.Errorf("op3 = %+v, want CGuard", tr.Ops[3])
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

// TestBuildObserverOps: a watched PC gets a CWatch op just before its own
// op, carrying the watched pc, so the observer sees the state before its
// instruction. Observer ops retire nothing: NInstr counts the path.
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
	// Unwatched, the same path builds one op per instruction.
	if plain := trace.Build(d, []int32{0, 1, 2, 3}, nil, nil); len(plain.Ops) != 4 || plain.NInstr != 4 {
		t.Errorf("unwatched build: %d ops, NInstr %d, want 4/4", len(plain.Ops), plain.NInstr)
	}
}
