// Package asm provides two ways to construct isa.Programs: a fluent
// programmatic Builder with symbolic labels (used by the workload kernels
// and tests) and a small text assembler/disassembler (used by cmd/asmrun).
package asm

import (
	"fmt"
	"sort"

	"github.com/amnesiac-sim/amnesiac/internal/isa"
)

// Builder assembles a program incrementally. Branch targets are symbolic
// labels resolved at Assemble time, so code can branch forward.
//
// The zero value is not ready for use; call NewBuilder.
type Builder struct {
	name   string
	code   []isa.Instr
	labels map[string]int
	// fixups maps instruction index -> label whose address belongs in Imm.
	fixups map[int]string
	errs   []error
}

// NewBuilder returns an empty Builder for a program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{
		name:   name,
		labels: make(map[string]int),
		fixups: make(map[int]string),
	}
}

// Label defines a label at the current position. Defining the same label
// twice is an error reported by Assemble.
func (b *Builder) Label(name string) *Builder {
	if _, dup := b.labels[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("label %q defined twice", name))
		return b
	}
	b.labels[name] = len(b.code)
	return b
}

// Emit appends a raw instruction.
func (b *Builder) Emit(in isa.Instr) *Builder {
	b.code = append(b.code, in)
	return b
}

func (b *Builder) emitBranch(op isa.Op, s1, s2 isa.Reg, label string) *Builder {
	b.fixups[len(b.code)] = label
	return b.Emit(isa.Instr{Op: op, Src1: s1, Src2: s2})
}

// Nop emits a no-op.
func (b *Builder) Nop() *Builder { return b.Emit(isa.Instr{Op: isa.NOP}) }

// Li emits dst = imm.
func (b *Builder) Li(dst isa.Reg, imm int64) *Builder {
	return b.Emit(isa.Instr{Op: isa.LI, Dst: dst, Imm: imm})
}

// Lf emits dst = bits(f) for a float64 immediate.
func (b *Builder) Lf(dst isa.Reg, f float64) *Builder {
	return b.Emit(isa.Instr{Op: isa.LI, Dst: dst, Imm: int64(f64bits(f))})
}

// Mov emits dst = src.
func (b *Builder) Mov(dst, src isa.Reg) *Builder {
	return b.Emit(isa.Instr{Op: isa.MOV, Dst: dst, Src1: src})
}

// Add emits dst = s1 + s2.
func (b *Builder) Add(dst, s1, s2 isa.Reg) *Builder { return b.alu(isa.ADD, dst, s1, s2) }

// Addi emits dst = s1 + imm.
func (b *Builder) Addi(dst, s1 isa.Reg, imm int64) *Builder {
	return b.Emit(isa.Instr{Op: isa.ADDI, Dst: dst, Src1: s1, Imm: imm})
}

// Sub emits dst = s1 - s2.
func (b *Builder) Sub(dst, s1, s2 isa.Reg) *Builder { return b.alu(isa.SUB, dst, s1, s2) }

// Mul emits dst = s1 * s2.
func (b *Builder) Mul(dst, s1, s2 isa.Reg) *Builder { return b.alu(isa.MUL, dst, s1, s2) }

// Div emits dst = s1 / s2.
func (b *Builder) Div(dst, s1, s2 isa.Reg) *Builder { return b.alu(isa.DIV, dst, s1, s2) }

// Rem emits dst = s1 % s2.
func (b *Builder) Rem(dst, s1, s2 isa.Reg) *Builder { return b.alu(isa.REM, dst, s1, s2) }

// And emits dst = s1 & s2.
func (b *Builder) And(dst, s1, s2 isa.Reg) *Builder { return b.alu(isa.AND, dst, s1, s2) }

// Or emits dst = s1 | s2.
func (b *Builder) Or(dst, s1, s2 isa.Reg) *Builder { return b.alu(isa.OR, dst, s1, s2) }

// Xor emits dst = s1 ^ s2.
func (b *Builder) Xor(dst, s1, s2 isa.Reg) *Builder { return b.alu(isa.XOR, dst, s1, s2) }

// Shl emits dst = s1 << s2.
func (b *Builder) Shl(dst, s1, s2 isa.Reg) *Builder { return b.alu(isa.SHL, dst, s1, s2) }

// Shr emits dst = s1 >> s2.
func (b *Builder) Shr(dst, s1, s2 isa.Reg) *Builder { return b.alu(isa.SHR, dst, s1, s2) }

// Slt emits dst = s1 < s2 (signed).
func (b *Builder) Slt(dst, s1, s2 isa.Reg) *Builder { return b.alu(isa.SLT, dst, s1, s2) }

// Seq emits dst = s1 == s2.
func (b *Builder) Seq(dst, s1, s2 isa.Reg) *Builder { return b.alu(isa.SEQ, dst, s1, s2) }

// Fadd emits dst = s1 + s2 (FP).
func (b *Builder) Fadd(dst, s1, s2 isa.Reg) *Builder { return b.alu(isa.FADD, dst, s1, s2) }

// Fsub emits dst = s1 - s2 (FP).
func (b *Builder) Fsub(dst, s1, s2 isa.Reg) *Builder { return b.alu(isa.FSUB, dst, s1, s2) }

// Fmul emits dst = s1 * s2 (FP).
func (b *Builder) Fmul(dst, s1, s2 isa.Reg) *Builder { return b.alu(isa.FMUL, dst, s1, s2) }

// Fdiv emits dst = s1 / s2 (FP).
func (b *Builder) Fdiv(dst, s1, s2 isa.Reg) *Builder { return b.alu(isa.FDIV, dst, s1, s2) }

// Fma emits dst = s1*s2 + dst (FP).
func (b *Builder) Fma(dst, s1, s2 isa.Reg) *Builder { return b.alu(isa.FMA, dst, s1, s2) }

// Fneg emits dst = -s1 (FP).
func (b *Builder) Fneg(dst, s1 isa.Reg) *Builder {
	return b.Emit(isa.Instr{Op: isa.FNEG, Dst: dst, Src1: s1})
}

// Fsqrt emits dst = sqrt(s1) (FP).
func (b *Builder) Fsqrt(dst, s1 isa.Reg) *Builder {
	return b.Emit(isa.Instr{Op: isa.FSQRT, Dst: dst, Src1: s1})
}

// Fabs emits dst = |s1| (FP).
func (b *Builder) Fabs(dst, s1 isa.Reg) *Builder {
	return b.Emit(isa.Instr{Op: isa.FABS, Dst: dst, Src1: s1})
}

// Fmin emits dst = min(s1, s2) (FP).
func (b *Builder) Fmin(dst, s1, s2 isa.Reg) *Builder { return b.alu(isa.FMIN, dst, s1, s2) }

// Fmax emits dst = max(s1, s2) (FP).
func (b *Builder) Fmax(dst, s1, s2 isa.Reg) *Builder { return b.alu(isa.FMAX, dst, s1, s2) }

// I2f emits dst = float(s1).
func (b *Builder) I2f(dst, s1 isa.Reg) *Builder {
	return b.Emit(isa.Instr{Op: isa.I2F, Dst: dst, Src1: s1})
}

// F2i emits dst = int(s1).
func (b *Builder) F2i(dst, s1 isa.Reg) *Builder {
	return b.Emit(isa.Instr{Op: isa.F2I, Dst: dst, Src1: s1})
}

// Ld emits dst = mem[base + off].
func (b *Builder) Ld(dst, base isa.Reg, off int64) *Builder {
	return b.Emit(isa.Instr{Op: isa.LD, Dst: dst, Src1: base, Imm: off})
}

// St emits mem[base + off] = val.
func (b *Builder) St(base isa.Reg, off int64, val isa.Reg) *Builder {
	return b.Emit(isa.Instr{Op: isa.ST, Src1: base, Src2: val, Imm: off})
}

// Beq emits if s1 == s2 goto label.
func (b *Builder) Beq(s1, s2 isa.Reg, label string) *Builder {
	return b.emitBranch(isa.BEQ, s1, s2, label)
}

// Bne emits if s1 != s2 goto label.
func (b *Builder) Bne(s1, s2 isa.Reg, label string) *Builder {
	return b.emitBranch(isa.BNE, s1, s2, label)
}

// Blt emits if s1 < s2 goto label.
func (b *Builder) Blt(s1, s2 isa.Reg, label string) *Builder {
	return b.emitBranch(isa.BLT, s1, s2, label)
}

// Bge emits if s1 >= s2 goto label.
func (b *Builder) Bge(s1, s2 isa.Reg, label string) *Builder {
	return b.emitBranch(isa.BGE, s1, s2, label)
}

// Jmp emits an unconditional jump to label.
func (b *Builder) Jmp(label string) *Builder { return b.emitBranch(isa.JMP, 0, 0, label) }

// Halt emits program termination.
func (b *Builder) Halt() *Builder { return b.Emit(isa.Instr{Op: isa.HALT}) }

func (b *Builder) alu(op isa.Op, dst, s1, s2 isa.Reg) *Builder {
	return b.Emit(isa.Instr{Op: op, Dst: dst, Src1: s1, Src2: s2})
}

// Assemble resolves labels and validates the program.
func (b *Builder) Assemble() (*isa.Program, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	code := make([]isa.Instr, len(b.code))
	copy(code, b.code)
	// Deterministic error reporting: resolve fixups in index order.
	idxs := make([]int, 0, len(b.fixups))
	for i := range b.fixups {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		label := b.fixups[i]
		target, ok := b.labels[label]
		if !ok {
			return nil, fmt.Errorf("pc %d: undefined label %q", i, label)
		}
		code[i].Imm = int64(target)
	}
	p := &isa.Program{Code: code, Name: b.name}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustAssemble is Assemble but panics on error; for use in workload kernels
// whose construction is deterministic and covered by tests.
func (b *Builder) MustAssemble() *isa.Program {
	p, err := b.Assemble()
	if err != nil {
		panic(fmt.Sprintf("asm: %s: %v", b.name, err))
	}
	return p
}
