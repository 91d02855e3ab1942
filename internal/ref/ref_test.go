package ref_test

import (
	"errors"
	"testing"

	"github.com/amnesiac-sim/amnesiac/internal/asm"
	"github.com/amnesiac-sim/amnesiac/internal/isa"
	"github.com/amnesiac-sim/amnesiac/internal/mem"
	"github.com/amnesiac-sim/amnesiac/internal/ref"
)

// TestObserverSeesSrcVals: the observer gets pre-execution operands even
// when dst == src1, the address and value of every LD/ST, the post-retire
// register file, and HALT as the last step.
func TestObserverSeesSrcVals(t *testing.T) {
	b := asm.NewBuilder("obs")
	b.Li(1, 5).Li(2, 7)
	b.Add(1, 1, 2) // dst == src1
	b.Li(3, 0x1000)
	b.St(3, 8, 1)
	b.Ld(4, 3, 8)
	b.Halt()
	p := b.MustAssemble()

	var steps []ref.Step
	regs, err := ref.Run(p, mem.NewMemory(), 100, func(s *ref.Step) {
		cp := *s
		if s.In.Op == isa.ADD && s.Regs[1] != 12 {
			t.Errorf("ADD: observed r1 = %d after retire, want 12", s.Regs[1])
		}
		steps = append(steps, cp)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != len(p.Code) {
		t.Fatalf("observed %d steps, want %d (one per instruction, HALT included)", len(steps), len(p.Code))
	}
	for i, s := range steps {
		if s.PC != i || s.In != p.Code[i] {
			t.Errorf("step %d: pc %d %s, want pc %d %s", i, s.PC, s.In, i, p.Code[i])
		}
	}
	if add := steps[2]; add.Srcs[0] != 5 || add.Srcs[1] != 7 || add.Srcs[2] != 5 {
		t.Errorf("ADD Srcs = %v, want pre-execution [5 7 5]", add.Srcs)
	}
	if st := steps[4]; st.Addr != 0x1008 || st.Value != 12 {
		t.Errorf("ST observed [%#x] <- %d, want [0x1008] <- 12", st.Addr, st.Value)
	}
	if ld := steps[5]; ld.Addr != 0x1008 || ld.Value != 12 || ld.Srcs[0] != 0x1000 {
		t.Errorf("LD observed %d from %#x (base %#x), want 12 from 0x1008 (base 0x1000)", ld.Value, ld.Addr, ld.Srcs[0])
	}
	if last := steps[len(steps)-1]; last.In.Op != isa.HALT {
		t.Errorf("last observed step is %s, want HALT", last.In)
	}
	if regs[1] != 12 || regs[4] != 12 {
		t.Errorf("final r1 = %d, r4 = %d, want 12, 12", regs[1], regs[4])
	}
}

// TestBudget: HALT counts against the budget, an exact fit completes, and a
// non-terminating program stops at the budget without observing more.
func TestBudget(t *testing.T) {
	b := asm.NewBuilder("fit")
	b.Li(1, 1).Li(2, 2)
	b.Halt()
	p := b.MustAssemble()
	if _, err := ref.Run(p, mem.NewMemory(), 3, nil); err != nil {
		t.Errorf("3 instructions under a budget of 3: %v", err)
	}
	if _, err := ref.Run(p, mem.NewMemory(), 2, nil); !errors.Is(err, ref.ErrBudget) {
		t.Errorf("3 instructions under a budget of 2: err = %v, want ErrBudget", err)
	}

	b = asm.NewBuilder("spin")
	b.Label("spin")
	b.Jmp("spin")
	p = b.MustAssemble()
	n := 0
	_, err := ref.Run(p, mem.NewMemory(), 1000, func(*ref.Step) { n++ })
	if !errors.Is(err, ref.ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if n != 1000 {
		t.Errorf("observed %d steps under a budget of 1000", n)
	}
}

// TestMisalignedAccess: a misaligned LD or ST fails wrapping
// mem.ErrMisaligned, leaves memory untouched, and is never observed.
func TestMisalignedAccess(t *testing.T) {
	cases := map[string]func(b *asm.Builder){
		"load":  func(b *asm.Builder) { b.Ld(2, 1, 0) },
		"store": func(b *asm.Builder) { b.St(1, 0, 2) },
	}
	for name, access := range cases {
		b := asm.NewBuilder(name)
		b.Li(1, 4099).Li(2, 5)
		access(b)
		b.Halt()
		p := b.MustAssemble()
		m := mem.NewMemory()
		var last isa.Op
		_, err := ref.Run(p, m, 100, func(s *ref.Step) { last = s.In.Op })
		if !errors.Is(err, mem.ErrMisaligned) {
			t.Errorf("%s: err = %v, want ErrMisaligned", name, err)
		}
		if last != isa.LI {
			t.Errorf("%s: last observed %s, want the LI before the fault", name, last)
		}
		if !m.Equal(mem.NewMemory()) {
			t.Errorf("%s: faulting access modified memory", name)
		}
	}
}

// TestAmnesicOpcodeRejected: the reference has no semantics for the
// amnesic opcodes.
func TestAmnesicOpcodeRejected(t *testing.T) {
	p := &isa.Program{Name: "amn", Code: []isa.Instr{{Op: isa.RCMP}, {Op: isa.HALT}}}
	if _, err := ref.Run(p, mem.NewMemory(), 10, nil); err == nil {
		t.Fatal("reference executed RCMP")
	}
}
