package cpu_test

import (
	"errors"
	"testing"
	"testing/quick"

	"github.com/amnesiac-sim/amnesiac/internal/asm"
	"github.com/amnesiac-sim/amnesiac/internal/cpu"
	"github.com/amnesiac-sim/amnesiac/internal/energy"
	"github.com/amnesiac-sim/amnesiac/internal/isa"
	"github.com/amnesiac-sim/amnesiac/internal/mem"
)

func run(t *testing.T, build func(*asm.Builder)) *cpu.Core {
	t.Helper()
	b := asm.NewBuilder("t")
	build(b)
	p, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	core := cpu.New(energy.Default(), mem.NewDefaultHierarchy(), mem.NewMemory())
	if err := core.Run(p); err != nil {
		t.Fatal(err)
	}
	return core
}

func TestArithmeticLoop(t *testing.T) {
	core := run(t, func(b *asm.Builder) {
		b.Li(1, 10).Li(2, 0).Li(3, 1)
		b.Label("loop")
		b.Add(2, 2, 1)
		b.Sub(1, 1, 3)
		b.Bne(1, isa.R0, "loop")
		b.Halt()
	})
	// sum of 10..1 = 55
	if core.Regs[2] != 55 {
		t.Errorf("sum = %d, want 55", core.Regs[2])
	}
	if core.Acct.Instrs == 0 || core.Acct.EnergyNJ <= 0 || core.Acct.TimeNS <= 0 {
		t.Error("accounting not charged")
	}
}

func TestMemoryRoundTripAndLevels(t *testing.T) {
	core := run(t, func(b *asm.Builder) {
		b.Li(1, 0x1000).Li(2, 77)
		b.St(1, 0, 2)
		b.Ld(3, 1, 0)
		b.Ld(4, 1, 0)
		b.Halt()
	})
	if core.Regs[3] != 77 || core.Regs[4] != 77 {
		t.Errorf("loaded %d/%d, want 77", core.Regs[3], core.Regs[4])
	}
	if core.Acct.Loads != 2 || core.Acct.Stores != 1 {
		t.Errorf("counts: %d loads %d stores", core.Acct.Loads, core.Acct.Stores)
	}
}

func TestZeroRegisterHardwired(t *testing.T) {
	core := run(t, func(b *asm.Builder) {
		b.Li(0, 99) // write to r0 discarded
		b.Add(1, 0, 0)
		b.Halt()
	})
	if core.Regs[0] != 0 || core.Regs[1] != 0 {
		t.Errorf("r0 not hardwired: r0=%d r1=%d", core.Regs[0], core.Regs[1])
	}
}

func TestMisalignedLoadFails(t *testing.T) {
	b := asm.NewBuilder("bad")
	b.Li(1, 3)
	b.Ld(2, 1, 0)
	b.Halt()
	p := b.MustAssemble()
	core := cpu.New(energy.Default(), mem.NewDefaultHierarchy(), mem.NewMemory())
	if err := core.Run(p); err == nil {
		t.Fatal("misaligned load accepted")
	}
}

func TestAmnesicOpcodeRejected(t *testing.T) {
	p := &isa.Program{Name: "amn", Code: []isa.Instr{{Op: isa.RCMP}, {Op: isa.HALT}}}
	core := cpu.New(energy.Default(), mem.NewDefaultHierarchy(), mem.NewMemory())
	if err := core.Run(p); err == nil {
		t.Fatal("classic core executed RCMP")
	}
}

func TestInstructionBudget(t *testing.T) {
	b := asm.NewBuilder("inf")
	b.Label("spin")
	b.Jmp("spin")
	p := b.MustAssemble()
	core := cpu.New(energy.Default(), mem.NewDefaultHierarchy(), mem.NewMemory())
	core.MaxInstrs = 1000
	err := core.Run(p)
	if !errors.Is(err, cpu.ErrInstrBudget) {
		t.Fatalf("err = %v, want budget exhaustion", err)
	}
}

// Property: the core computes the same sums as Go for random linear loops.
func TestCoreMatchesGoSemantics(t *testing.T) {
	f := func(n uint8, k uint16) bool {
		iters := int64(n%50) + 1
		mul := int64(k%97) + 1
		b := asm.NewBuilder("prop")
		b.Li(1, iters).Li(2, mul).Li(3, 0).Li(4, 0).Li(5, 1)
		b.Label("loop")
		b.Mul(6, 4, 2)
		b.Xor(3, 3, 6)
		b.Add(4, 4, 5)
		b.Blt(4, 1, "loop")
		b.Halt()
		p := b.MustAssemble()
		core := cpu.New(energy.Default(), mem.NewDefaultHierarchy(), mem.NewMemory())
		if err := core.Run(p); err != nil {
			return false
		}
		var want uint64
		for i := int64(0); i < iters; i++ {
			want ^= uint64(i) * uint64(mul)
		}
		return core.Regs[3] == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestMisalignedErrorsWrapErrMisaligned locks the error contract of the
// core: misaligned program addresses surface as errors
// wrapping mem.ErrMisaligned — never as the Memory accessors' panic — even
// when the access would otherwise take the inline flat-arena route.
func TestMisalignedErrorsWrapErrMisaligned(t *testing.T) {
	cases := map[string]func(b *asm.Builder){
		"load":  func(b *asm.Builder) { b.Ld(2, 1, 0) },
		"store": func(b *asm.Builder) { b.St(1, 0, 2) },
	}
	for name, access := range cases {
		b := asm.NewBuilder(name)
		// Anchor the flat arena with an aligned store first, then access a
		// misaligned address near it.
		b.Li(1, 4096).Li(2, 5)
		b.St(1, 0, 2)
		b.Addi(1, 1, 3) // r1 = 4099: misaligned
		access(b)
		b.Halt()
		p := b.MustAssemble()
		core := cpu.New(energy.Default(), mem.NewDefaultHierarchy(), mem.NewMemory())
		err := core.Run(p)
		if !errors.Is(err, mem.ErrMisaligned) {
			t.Errorf("%s: err = %v, want ErrMisaligned", name, err)
		}
	}
}

// BenchmarkRun measures interpreter throughput on a store/load loop; run
// with -benchmem to confirm the steady state allocates nothing per
// instruction.
func BenchmarkRun(b *testing.B) {
	ab := asm.NewBuilder("bench")
	ab.Li(1, 5000).Li(3, 1).Li(4, 4096)
	ab.Label("loop")
	ab.St(4, 0, 1)
	ab.Ld(5, 4, 0)
	ab.Add(2, 2, 5)
	ab.Addi(4, 4, 64)
	ab.Sub(1, 1, 3)
	ab.Bne(1, isa.R0, "loop")
	ab.Halt()
	p := ab.MustAssemble()
	core := cpu.New(energy.Default(), mem.NewDefaultHierarchy(), mem.NewMemory())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := core.Run(p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(core.Acct.Instrs)/float64(b.N), "instrs/op")
}

// TestRunProgramLimit verifies the budget plumbing of the wrapper.
func TestRunProgramLimit(t *testing.T) {
	b := asm.NewBuilder("inf")
	b.Label("spin")
	b.Jmp("spin")
	p := b.MustAssemble()
	_, err := cpu.RunProgramLimit(energy.Default(), p, mem.NewMemory(), 500)
	if !errors.Is(err, cpu.ErrInstrBudget) {
		t.Fatalf("err = %v, want budget exhaustion", err)
	}
}
