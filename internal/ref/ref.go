// Package ref is the flat reference stepper: the simplest executable
// semantics of the classic ISA, with no cache hierarchy, no energy
// accounting and no amnesic anything. It deliberately shares only
// isa.EvalCompute and isa.BranchTaken with the production cores (the
// shared dispatch core in internal/exec and the fused profiler), so a bug
// in their dispatch loops shows up as a divergence rather than agreeing
// with itself.
//
// An optional observer sees every retired instruction, HALT included, with
// the operand values it read. Every per-instruction reference in the repo
// is built on it: the differential oracle's reference arm
// (internal/difftest), profile.CollectReference, the compiler's reference
// validator, and the watch transparency tests of internal/exec.
package ref

import (
	"errors"
	"fmt"

	"github.com/amnesiac-sim/amnesiac/internal/isa"
	"github.com/amnesiac-sim/amnesiac/internal/mem"
)

// ErrBudget is returned when a run reaches its instruction budget without
// halting.
var ErrBudget = errors.New("ref: instruction budget exceeded")

// Step describes one retired instruction, delivered to the observer.
type Step struct {
	PC int
	In isa.Instr
	// Srcs holds the operand values before execution: Src1, Src2 and the
	// old Dst (the FMA accumulator input), with R0 reading as zero.
	Srcs [3]uint64
	// Addr is the effective address and Value the word loaded or stored
	// (LD and ST only; zero otherwise).
	Addr, Value uint64
	// Regs is the register file after the instruction retired. Observers
	// must not modify it.
	Regs *[isa.NumRegs]uint64
}

// Run interprets p over m from PC 0 until HALT and returns the final
// register file; m is updated in place. A run that has retired max
// instructions without reaching HALT fails with ErrBudget. If observe is
// non-nil it is called once per retired instruction, HALT included; the
// Step is reused across calls, so observers copy out what they keep.
func Run(p *isa.Program, m *mem.Memory, max uint64, observe func(*Step)) ([isa.NumRegs]uint64, error) {
	var regs [isa.NumRegs]uint64
	read := func(r isa.Reg) uint64 {
		if r == isa.R0 {
			return 0
		}
		return regs[r]
	}
	write := func(r isa.Reg, v uint64) {
		if r != isa.R0 {
			regs[r] = v
		}
	}
	var st Step
	pc := 0
	for steps := uint64(0); ; steps++ {
		if pc < 0 || pc >= len(p.Code) {
			return regs, fmt.Errorf("ref: pc %d out of range (%d instrs)", pc, len(p.Code))
		}
		if steps >= max {
			return regs, fmt.Errorf("%w (%d)", ErrBudget, max)
		}
		in := p.Code[pc]
		st = Step{PC: pc, In: in, Srcs: [3]uint64{read(in.Src1), read(in.Src2), read(in.Dst)}, Regs: &regs}
		next := pc + 1
		switch {
		case in.Op == isa.NOP, in.Op == isa.HALT:
		case isa.Recomputable(in.Op):
			write(in.Dst, isa.EvalCompute(in, st.Srcs[0], st.Srcs[1], st.Srcs[2]))
		case in.Op == isa.LD, in.Op == isa.ST:
			st.Addr = st.Srcs[0] + uint64(in.Imm)
			if err := mem.CheckAligned(st.Addr); err != nil {
				return regs, fmt.Errorf("ref: pc %d (%s): %w", pc, in, err)
			}
			if in.Op == isa.LD {
				st.Value = m.Load(st.Addr)
				write(in.Dst, st.Value)
			} else {
				st.Value = st.Srcs[1]
				m.Store(st.Addr, st.Value)
			}
		case in.Op == isa.JMP:
			next = int(in.Imm)
		case in.Op == isa.BEQ, in.Op == isa.BNE, in.Op == isa.BLT, in.Op == isa.BGE:
			if isa.BranchTaken(in.Op, st.Srcs[0], st.Srcs[1]) {
				next = int(in.Imm)
			}
		default:
			return regs, fmt.Errorf("ref: pc %d: op %s has no reference semantics", pc, in.Op)
		}
		if observe != nil {
			observe(&st)
		}
		if in.Op == isa.HALT {
			return regs, nil
		}
		pc = next
	}
}
