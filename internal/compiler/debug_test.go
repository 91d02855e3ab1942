package compiler

import (
	"testing"

	"github.com/amnesiac-sim/amnesiac/internal/asm"
	"github.com/amnesiac-sim/amnesiac/internal/energy"
	"github.com/amnesiac-sim/amnesiac/internal/isa"
	"github.com/amnesiac-sim/amnesiac/internal/mem"
	"github.com/amnesiac-sim/amnesiac/internal/profile"
	"github.com/amnesiac-sim/amnesiac/internal/workloads"
)

func debugProgram(t testing.TB, n int) (*isa.Program, *mem.Memory) {
	t.Helper()
	const baseA = 0x4000000
	b := asm.NewBuilder("derived-array")
	const (
		rBaseA = isa.Reg(2)
		rN     = isa.Reg(3)
		rI     = isa.Reg(4)
		rMul   = isa.Reg(5)
		rOff   = isa.Reg(6)
		rSh    = isa.Reg(7)
		rK     = isa.Reg(8)
		rB     = isa.Reg(9)
		rT     = isa.Reg(10)
		rV     = isa.Reg(11)
		rAddrA = isa.Reg(12)
		rSum   = isa.Reg(13)
		rL     = isa.Reg(14)
		rOne   = isa.Reg(15)
		rC     = isa.Reg(16)
		rP     = isa.Reg(17)
		rQ     = isa.Reg(18)
	)
	b.Li(rBaseA, baseA).Li(rN, int64(n)).Li(rMul, 3).Li(rSh, 3).Li(rOne, 1).Li(rK, 37)
	b.Li(rI, 0)
	b.Label("loopA")
	b.Mul(rB, rI, rK)
	b.Addi(rB, rB, 11)
	b.Mul(rT, rB, rMul)
	b.Addi(rV, rT, 7)
	b.Shl(rOff, rI, rSh)
	b.Add(rAddrA, rBaseA, rOff)
	b.St(rAddrA, 0, rV)
	b.Add(rI, rI, rOne)
	b.Blt(rI, rN, "loopA")
	b.Li(rC, 0).Li(rSum, 0).Li(rP, 17).Li(rQ, 5)
	b.Label("loopB")
	b.Mul(rI, rC, rP)
	b.Add(rI, rI, rQ)
	b.Rem(rI, rI, rN)
	b.Shl(rOff, rI, rSh)
	b.Add(rAddrA, rBaseA, rOff)
	b.Ld(rL, rAddrA, 0)
	b.Add(rSum, rSum, rL)
	b.Add(rC, rC, rOne)
	b.Blt(rC, rN, "loopB")
	b.Halt()
	prog, err := b.Assemble()
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return prog, mem.NewMemory()
}

// logSlices dumps, per profiled load, its candidate slice and the verdict
// one validated plan reaches on it.
func logSlices(t *testing.T, name string, model *energy.Model, prog *isa.Program, initial *mem.Memory) {
	t.Helper()
	prof, err := profile.Collect(model, prog, initial)
	if err != nil {
		t.Fatalf("%s: profile: %v", name, err)
	}
	opts := DefaultOptions()
	opts.Mode = ModeOracleAll
	ann, err := Compile(model, prog, prof, initial, opts)
	if err != nil {
		t.Fatalf("%s: compile: %v", name, err)
	}
	valid := make(map[int]*SliceInfo)
	for _, si := range ann.Slices {
		valid[si.LoadPC] = si
	}
	b := &builder{model: model, prog: prog, prof: prof, opts: opts}
	for _, pc := range prof.SortedLoadPCs() {
		li := prof.Loads[pc]
		t.Logf("%s: load @%d %s count=%d levels=%v eld=%.2f valueProd=%v",
			name, pc, prog.Code[pc], li.Count, li.ByLevel, li.ExpectedLoadEnergy(model), li.ValueProducer)
		sl, reason := b.build(pc)
		if sl == nil {
			t.Logf("  no slice: reason=%d", reason)
			continue
		}
		t.Logf("  slice:\n%s  cost=%.2f", sl.String(), b.sliceCost(sl))
		if si := valid[pc]; si != nil {
			t.Logf("  validated: inputs resolved to\n%s", si.Slice.String())
		} else {
			t.Logf("  rejected: %s", ann.Stats.RejectedDetail[pc])
		}
	}
}

func TestDebugSliceConstruction(t *testing.T) {
	prog, initial := debugProgram(t, 40000)
	logSlices(t, "derived-array", energy.Default(), prog, initial)
}

func TestDebugWorkloadSlices(t *testing.T) {
	if testing.Short() {
		t.Skip("debug dump")
	}
	for _, name := range []string{"fs", "rt", "cg", "sr"} {
		w, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		prog, initial := w.Build(0.2)
		logSlices(t, name, energy.Default(), prog, initial)
	}
}
