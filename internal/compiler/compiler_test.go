package compiler_test

import (
	"reflect"
	"testing"
	"testing/quick"

	"github.com/amnesiac-sim/amnesiac/internal/amnesic"
	"github.com/amnesiac-sim/amnesiac/internal/asm"
	"github.com/amnesiac-sim/amnesiac/internal/compiler"
	"github.com/amnesiac-sim/amnesiac/internal/cpu"
	"github.com/amnesiac-sim/amnesiac/internal/energy"
	"github.com/amnesiac-sim/amnesiac/internal/isa"
	"github.com/amnesiac-sim/amnesiac/internal/mem"
	"github.com/amnesiac-sim/amnesiac/internal/policy"
	"github.com/amnesiac-sim/amnesiac/internal/profile"
	"github.com/amnesiac-sim/amnesiac/internal/uarch"
	"github.com/amnesiac-sim/amnesiac/internal/workloads"
)

// buildParamKernel emits a derive-then-strided-reload program parameterized
// by array size, chain length and consumer stride. All parameters yield a
// validating slice (live index binding).
func buildParamKernel(n, chain, stride int64) *isa.Program {
	if chain < 1 {
		chain = 1
	}
	b := asm.NewBuilder("param")
	const (
		rBase, rN, rI, rK          = isa.Reg(1), isa.Reg(2), isa.Reg(4), isa.Reg(5)
		rOff, rAddr, rSh, rOne     = isa.Reg(6), isa.Reg(7), isa.Reg(8), isa.Reg(9)
		rV, rT1, rT2, rSum, rC, rS = isa.Reg(10), isa.Reg(11), isa.Reg(12), isa.Reg(13), isa.Reg(14), isa.Reg(15)
	)
	b.Li(rBase, 0x100_0000).Li(rN, n).Li(rK, 37).Li(rSh, 3).Li(rOne, 1)
	b.Li(rI, 0)
	b.Label("prod")
	cur, other := rT1, rT2
	b.Mul(cur, rI, rK)
	for k := int64(1); k < chain; k++ {
		b.Addi(other, cur, 11+k)
		cur, other = other, cur
	}
	b.Mov(rV, cur)
	b.Shl(rOff, rI, rSh)
	b.Add(rAddr, rBase, rOff)
	b.St(rAddr, 0, rV)
	b.Add(rI, rI, rOne)
	b.Blt(rI, rN, "prod")

	b.Li(rC, 0).Li(rSum, 0).Li(rS, stride)
	b.Label("cons")
	b.Mul(rI, rC, rS)
	b.Rem(rI, rI, rN)
	b.Shl(rOff, rI, rSh)
	b.Add(rAddr, rBase, rOff)
	b.Ld(rV, rAddr, 0)
	b.Add(rSum, rSum, rV)
	b.Add(rC, rC, rOne)
	b.Blt(rC, rN, "cons")
	b.Halt()
	return b.MustAssemble()
}

func compileKernel(t testing.TB, prog *isa.Program, opts compiler.Options) (*energy.Model, *compiler.Annotated) {
	t.Helper()
	model := energy.Default()
	prof, err := profile.Collect(model, prog, mem.NewMemory())
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	ann, err := compiler.Compile(model, prog, prof, mem.NewMemory(), opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return model, ann
}

func TestAnnotatedBinaryStructure(t *testing.T) {
	prog := buildParamKernel(60000, 4, 9973)
	_, ann := compileKernel(t, prog, compiler.DefaultOptions())
	if len(ann.Slices) == 0 {
		t.Fatalf("no slices; %+v", ann.Stats)
	}
	if err := ann.Prog.Validate(); err != nil {
		t.Fatalf("annotated program invalid: %v", err)
	}
	for _, si := range ann.Slices {
		rcmp := ann.Prog.Code[si.RcmpPC]
		if rcmp.Op != isa.RCMP || int(rcmp.SliceID) != si.ID {
			t.Errorf("slice %d: RCMP wrong: %v", si.ID, rcmp)
		}
		orig := ann.Original.Code[si.LoadPC]
		if rcmp.Dst != orig.Dst || rcmp.Src1 != orig.Src1 || rcmp.Imm != orig.Imm {
			t.Errorf("slice %d: RCMP does not inherit the load's operands", si.ID)
		}
		if int(rcmp.Target) != si.EntryPC {
			t.Errorf("slice %d: target %d != entry %d", si.ID, rcmp.Target, si.EntryPC)
		}
		end := si.EntryPC + len(si.Recipe.Ops)
		if ann.Prog.Code[end].Op != isa.RTN {
			t.Errorf("slice %d: body not terminated by RTN", si.ID)
		}
		for i, op := range si.Recipe.Ops {
			if in := ann.Prog.Code[si.EntryPC+i]; in.Op != op.Op || in.Imm != op.Imm {
				t.Errorf("slice %d: embedded body diverges at %d", si.ID, i)
			}
		}
	}
	// PCMap: every original instruction is mapped and the mapped opcode
	// matches (loads may become RCMPs).
	for pc, in := range ann.Original.Code {
		mapped := ann.Prog.Code[ann.PCMap[pc]]
		if in.Op == isa.LD {
			if mapped.Op != isa.LD && mapped.Op != isa.RCMP {
				t.Errorf("pc %d: load mapped to %s", pc, mapped.Op)
			}
		} else if mapped.Op != in.Op && !ann.EliminatedStores[pc] {
			t.Errorf("pc %d: %s mapped to %s", pc, in.Op, mapped.Op)
		}
	}
}

func TestOracleModeKeepsMoreSlices(t *testing.T) {
	prog := buildParamKernel(60000, 4, 9973)
	opts := compiler.DefaultOptions()
	_, probAnn := compileKernel(t, prog, opts)
	opts.Mode = compiler.ModeOracleAll
	_, oracleAnn := compileKernel(t, prog, opts)
	if len(oracleAnn.Slices) < len(probAnn.Slices) {
		t.Errorf("oracle mode kept %d slices, probabilistic %d", len(oracleAnn.Slices), len(probAnn.Slices))
	}
}

// TestEmitSharesBinaryEitherOrder: a plan emits one binary for both modes
// exactly when the probabilistic selection cost-rejects no valid slice,
// whichever mode is emitted first, and the binaries do not depend on that
// order. At scale 0.05 is keeps every valid slice and lbm cost-rejects its
// only one.
func TestEmitSharesBinaryEitherOrder(t *testing.T) {
	model := energy.Default()
	modes := [2]compiler.Mode{compiler.ModeProbabilistic, compiler.ModeOracleAll}
	for _, c := range []struct {
		name   string
		shared bool
	}{{"is", true}, {"lbm", false}} {
		w, err := workloads.Get(c.name)
		if err != nil {
			t.Fatal(err)
		}
		prog, initial := w.Build(0.05)
		prof, err := profile.Collect(model, prog, initial)
		if err != nil {
			t.Fatal(err)
		}
		var byOrder [2][2]*compiler.Annotated // [order][mode]
		for order := range byOrder {
			plan, err := compiler.NewPlan(model, prog, prof, compiler.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			core := cpu.New(model, mem.NewDefaultHierarchy(), initial.Clone())
			core.Watch = plan.Watch()
			if err := core.Run(prog); err != nil {
				t.Fatal(err)
			}
			for k := range modes {
				mode := modes[k^order] // order 1 emits the oracle mode first
				if byOrder[order][mode], err = plan.Emit(mode); err != nil {
					t.Fatal(err)
				}
			}
			prob, oracle := byOrder[order][compiler.ModeProbabilistic], byOrder[order][compiler.ModeOracleAll]
			if shared := prob == oracle; shared != c.shared || shared != (prob.Stats.RejectedCost == 0) {
				t.Errorf("%s, order %d: modes share a binary = %v with %d cost-rejected slices, want %v",
					c.name, order, shared, prob.Stats.RejectedCost, c.shared)
			}
		}
		if !reflect.DeepEqual(byOrder[0], byOrder[1]) {
			t.Errorf("%s: emitted binaries depend on the order the modes are emitted in", c.name)
		}
	}
}

func TestDeadStoreEliminationGating(t *testing.T) {
	prog := buildParamKernel(60000, 4, 9973)
	opts := compiler.DefaultOptions()
	opts.EliminateDeadStores = true
	model, ann := compileKernel(t, prog, opts)
	if len(ann.EliminatedStores) == 0 {
		t.Fatal("no dead stores eliminated despite all consumers swapped")
	}
	// Non-Compiler policies must be rejected on a DSE binary.
	if _, err := amnesic.New(model, ann, mem.NewMemory(), policy.New(policy.FLC), uarch.DefaultConfig()); err == nil {
		t.Error("FLC accepted on a dead-store-eliminated binary")
	}
	machine, err := amnesic.New(model, ann, mem.NewMemory(), policy.New(policy.Compiler), uarch.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := machine.Run(); err != nil {
		t.Fatalf("DSE run: %v", err)
	}
	classic, err := cpu.RunProgram(model, prog, mem.NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	if machine.Regs != classic.Regs {
		t.Error("DSE run diverges architecturally")
	}
	if machine.Acct.Stores >= classic.Acct.Stores {
		t.Errorf("DSE did not reduce dynamic stores: %d >= %d", machine.Acct.Stores, classic.Acct.Stores)
	}
}

func TestRECPrecedesLeafProducer(t *testing.T) {
	// A kernel with an overwritten parameter: produced by a converge loop,
	// recycled after the producer loop -> Hist input with REC instructions.
	b := asm.NewBuilder("hist")
	const (
		rBase, rN, rI, rP, rQ, rT  = isa.Reg(1), isa.Reg(2), isa.Reg(4), isa.Reg(5), isa.Reg(6), isa.Reg(7)
		rOff, rAddr, rSh, rOne, rV = isa.Reg(8), isa.Reg(9), isa.Reg(10), isa.Reg(11), isa.Reg(12)
		rSum, rC, rS               = isa.Reg(13), isa.Reg(14), isa.Reg(15)
	)
	b.Li(rBase, 0x100_0000).Li(rN, 60000).Li(rSh, 3).Li(rOne, 1)
	b.Li(rP, 3).Li(rT, 0)
	b.Label("cv")
	b.Mul(rP, rP, rQ)
	b.Addi(rP, rP, 1)
	b.Add(rT, rT, rOne)
	b.Li(rQ, 5)
	b.Blt(rT, rQ, "cv")
	b.Li(rI, 0)
	b.Label("prod")
	b.Mul(rV, rI, rQ)
	b.Add(rV, rV, rP)
	b.Shl(rOff, rI, rSh)
	b.Add(rAddr, rBase, rOff)
	b.St(rAddr, 0, rV)
	b.Add(rI, rI, rOne)
	b.Blt(rI, rN, "prod")
	b.Li(rP, 0) // recycle
	b.Li(rC, 0).Li(rSum, 0).Li(rS, 9973)
	b.Label("cons")
	b.Mul(rI, rC, rS)
	b.Rem(rI, rI, rN)
	b.Shl(rOff, rI, rSh)
	b.Add(rAddr, rBase, rOff)
	b.Ld(rV, rAddr, 0)
	b.Add(rSum, rSum, rV)
	b.Add(rC, rC, rOne)
	b.Blt(rC, rN, "cons")
	b.Halt()
	prog := b.MustAssemble()

	model, ann := compileKernel(t, prog, compiler.DefaultOptions())
	if len(ann.Slices) == 0 {
		t.Fatalf("no slices; %+v", ann.Stats)
	}
	if ann.Stats.HistEntriesTotal == 0 {
		t.Fatal("expected Hist entries for the recycled parameter")
	}
	found := false
	for pc, in := range ann.Prog.Code {
		if in.Op == isa.REC {
			found = true
			spec, ok := ann.RecSpecs[pc]
			if !ok {
				t.Errorf("REC at %d has no spec", pc)
			}
			if spec.Mask == 0 {
				t.Errorf("REC at %d checkpoints nothing", pc)
			}
		}
	}
	if !found {
		t.Fatal("no REC instructions emitted")
	}
	// Runs must verify and actually read Hist.
	classic, err := cpu.RunProgram(model, prog, mem.NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	machine, err := amnesic.New(model, ann, mem.NewMemory(), policy.New(policy.Compiler), uarch.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := machine.Run(); err != nil {
		t.Fatal(err)
	}
	if machine.Regs != classic.Regs {
		t.Fatal("hist-input kernel diverges")
	}
	if machine.Acct.HistReadNJ == 0 || machine.Stat.RecExecuted == 0 {
		t.Errorf("hist machinery unused: reads=%v recs=%d", machine.Acct.HistReadNJ, machine.Stat.RecExecuted)
	}
}

// Property: for random kernel parameters, amnesic execution under every
// policy is architecturally equivalent to classic execution.
func TestAmnesicEquivalenceProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("slow property test")
	}
	f := func(nSeed, chainSeed, strideSeed uint16) bool {
		n := int64(20000 + int(nSeed)%40000)
		chain := int64(1 + chainSeed%10)
		stride := int64(3 + 2*(strideSeed%5000))
		prog := buildParamKernel(n, chain, stride)
		model := energy.Default()
		prof, err := profile.Collect(model, prog, mem.NewMemory())
		if err != nil {
			return false
		}
		ann, err := compiler.Compile(model, prog, prof, mem.NewMemory(), compiler.DefaultOptions())
		if err != nil {
			return false
		}
		classic, err := cpu.RunProgram(model, prog, mem.NewMemory())
		if err != nil {
			return false
		}
		for _, k := range policy.All() {
			machine, err := amnesic.New(model, ann, mem.NewMemory(), policy.New(k), uarch.DefaultConfig())
			if err != nil {
				return false
			}
			if err := machine.Run(); err != nil {
				return false
			}
			if machine.Regs != classic.Regs {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}
