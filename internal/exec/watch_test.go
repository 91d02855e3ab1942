package exec_test

import (
	"fmt"
	"testing"

	"github.com/amnesiac-sim/amnesiac/internal/cpu"
	"github.com/amnesiac-sim/amnesiac/internal/energy"
	"github.com/amnesiac-sim/amnesiac/internal/exec"
	"github.com/amnesiac-sim/amnesiac/internal/gen"
	"github.com/amnesiac-sim/amnesiac/internal/isa"
	"github.com/amnesiac-sim/amnesiac/internal/mem"
	"github.com/amnesiac-sim/amnesiac/internal/ref"
	"github.com/amnesiac-sim/amnesiac/internal/trace"
	"github.com/amnesiac-sim/amnesiac/internal/workloads"
)

// watchEvent is one observation: the pc, the operand registers (Src1,
// Src2, old Dst) and, for a load, the word it is about to read.
type watchEvent struct {
	pc    int
	srcs  [3]uint64
	value uint64
}

// assertWatchTransparent watches every third instruction of p and asserts
// that (1) the watched run's architectural state and energy
// account equal an unwatched traced run's, and (2) the observer saw
// exactly the reference stepper's event stream at those PCs, with the
// state before each instruction executed.
func assertWatchTransparent(t *testing.T, name string, p *isa.Program, initial *mem.Memory, threshold uint32) {
	t.Helper()
	model := energy.Default()
	var pcs []int
	watched := make(map[int]bool)
	for pc := range p.Code {
		if pc%3 == 0 {
			pcs = append(pcs, pc)
			watched[pc] = true
		}
	}

	var want []watchEvent
	_, refErr := ref.Run(p, initial.Clone(), exec.DefaultMaxInstrs, func(s *ref.Step) {
		if watched[s.PC] {
			e := watchEvent{pc: s.PC, srcs: s.Srcs}
			if s.In.Op == isa.LD {
				e.value = s.Value
			}
			want = append(want, e)
		}
	})

	plain := cpu.New(model, mem.NewDefaultHierarchy(), initial.Clone())
	plain.Trace = trace.Config{Enable: true, Threshold: threshold}
	plainErr := plain.Run(p)

	core := cpu.New(model, mem.NewDefaultHierarchy(), initial.Clone())
	core.Trace = trace.Config{Enable: true, Threshold: threshold}
	var seen int
	core.Watch = &exec.Watch{PCs: pcs, Observe: func(pc int, regs *[isa.NumRegs]uint64, m *mem.Memory) {
		in := p.Code[pc]
		e := watchEvent{pc: pc, srcs: [3]uint64{regs[in.Src1], regs[in.Src2], regs[in.Dst]}}
		if addr := regs[in.Src1] + uint64(in.Imm); in.Op == isa.LD && addr&7 == 0 {
			e.value = m.Load(addr)
		}
		if refErr == nil && (seen >= len(want) || e != want[seen]) {
			t.Fatalf("%s: event %d: observed %+v, reference retired %d events here", name, seen, e, len(want))
		}
		seen++
	}}
	err := core.Run(p)

	if (err == nil) != (plainErr == nil) || (err != nil && err.Error() != plainErr.Error()) {
		t.Fatalf("%s: watched run error %v, unwatched %v", name, err, plainErr)
	}
	if core.Regs != plain.Regs || core.Acct != plain.Acct || core.PC != plain.PC || !core.Mem.Equal(plain.Mem) {
		t.Fatalf("%s: watched run diverges from the unwatched run", name)
	}
	if refErr == nil && seen != len(want) {
		t.Fatalf("%s: observed %d events, reference retired %d at the watched PCs", name, seen, len(want))
	}
}

// TestWatchTransparentWorkloads covers the three smallest responsive
// kernels; the reference run dominates the cost.
func TestWatchTransparentWorkloads(t *testing.T) {
	for _, name := range []string{"bfs", "sr", "rt"} {
		w, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		prog, initial := w.Build(0.05)
		assertWatchTransparent(t, w.Name, prog, initial, 32)
	}
}

func TestWatchTransparentGen(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		prog, initial, err := gen.Generate(seed, gen.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		assertWatchTransparent(t, fmt.Sprintf("gen seed %d", seed), prog, initial, 1)
	}
}
