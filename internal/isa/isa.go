// Package isa defines the RISC-style instruction set used throughout the
// AMNESIAC simulator: integer and floating-point ALU operations, loads,
// stores, branches, and the amnesic extensions RCMP, RTN and REC introduced
// by the paper (§3.1.2).
//
// The ISA is deliberately simple — three-operand register instructions over
// 32 general-purpose 64-bit registers, word (8-byte) memory accesses, and
// absolute branch targets — because the amnesic transformation only cares
// about producer–consumer dependences, memory operations and instruction
// categories for energy accounting. Floating-point operations interpret the
// 64-bit register contents as IEEE-754 doubles.
package isa

import (
	"fmt"
	"sync"
	"unsafe"
)

// Reg names one of the 32 architectural registers. R0 is hardwired to zero:
// writes to it are discarded and reads always return 0, which gives the
// compiler and the workloads a convenient constant source.
type Reg uint8

// NumRegs is the architectural register count.
const NumRegs = 32

// R0 is the hardwired zero register.
const R0 Reg = 0

// Valid reports whether r names an architectural register.
func (r Reg) Valid() bool { return r < NumRegs }

func (r Reg) String() string { return fmt.Sprintf("r%d", uint8(r)) }

// Op enumerates instruction opcodes.
type Op uint8

// Opcodes. The amnesic extensions mirror §3.1.2 of the paper:
//
//   - RCMP fuses a conditional branch with a load: depending on the runtime
//     policy it either performs the load or branches to the entry point of
//     its recomputation slice.
//   - RTN returns from a recomputation slice to the instruction following
//     the triggering RCMP, after copying the recomputed value into the
//     eliminated load's destination register.
//   - REC checkpoints the non-recomputable input operands of one slice leaf
//     into the Hist table.
const (
	NOP Op = iota

	// Integer ALU.
	LI   // dst = imm
	MOV  // dst = src1
	ADD  // dst = src1 + src2
	ADDI // dst = src1 + imm
	SUB  // dst = src1 - src2
	MUL  // dst = src1 * src2
	DIV  // dst = src1 / src2 (0 if src2 == 0)
	REM  // dst = src1 % src2 (0 if src2 == 0)
	AND  // dst = src1 & src2
	OR   // dst = src1 | src2
	XOR  // dst = src1 ^ src2
	SHL  // dst = src1 << (src2 & 63)
	SHR  // dst = src1 >> (src2 & 63) (logical)
	SLT  // dst = src1 < src2 ? 1 : 0 (signed)
	SEQ  // dst = src1 == src2 ? 1 : 0

	// Floating point (registers hold IEEE-754 bit patterns).
	FADD  // dst = src1 + src2
	FSUB  // dst = src1 - src2
	FMUL  // dst = src1 * src2
	FDIV  // dst = src1 / src2
	FMA   // dst = src1*src2 + dst (dst is also a source)
	FNEG  // dst = -src1
	FSQRT // dst = sqrt(src1)
	FABS  // dst = |src1|
	FMIN  // dst = min(src1, src2)
	FMAX  // dst = max(src1, src2)
	I2F   // dst = float64(int64(src1))
	F2I   // dst = int64(float64(src1))

	// Memory. Addresses are byte addresses; accesses are 8-byte words.
	LD // dst = mem[src1 + imm]
	ST // mem[src1 + imm] = src2

	// Control flow. Branch targets are absolute instruction indices
	// (filled in by the assembler from labels).
	BEQ  // if src1 == src2 goto imm
	BNE  // if src1 != src2 goto imm
	BLT  // if src1 <  src2 goto imm (signed)
	BGE  // if src1 >= src2 goto imm (signed)
	JMP  // goto imm
	HALT // stop execution

	// Amnesic extensions (§3.1.2).
	RCMP // recompute-or-load: dst = mem[src1 + imm] OR branch to slice
	RTN  // return from recomputation slice
	REC  // checkpoint leaf inputs into Hist

	numOps
)

var opNames = [numOps]string{
	NOP: "nop", LI: "li", MOV: "mov", ADD: "add", ADDI: "addi", SUB: "sub",
	MUL: "mul", DIV: "div", REM: "rem", AND: "and", OR: "or", XOR: "xor",
	SHL: "shl", SHR: "shr", SLT: "slt", SEQ: "seq",
	FADD: "fadd", FSUB: "fsub", FMUL: "fmul", FDIV: "fdiv", FMA: "fma",
	FNEG: "fneg", FSQRT: "fsqrt", FABS: "fabs", FMIN: "fmin", FMAX: "fmax",
	I2F: "i2f", F2I: "f2i",
	LD: "ld", ST: "st",
	BEQ: "beq", BNE: "bne", BLT: "blt", BGE: "bge", JMP: "jmp", HALT: "halt",
	RCMP: "rcmp", RTN: "rtn", REC: "rec",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Valid reports whether o is a defined opcode.
func (o Op) Valid() bool { return o < numOps }

// Category groups opcodes for energy-per-instruction accounting, matching
// the instruction categories the paper derives EPI estimates for (§3.1.1).
type Category uint8

// Instruction categories.
const (
	CatNop Category = iota
	CatIntALU
	CatIntMul // multiply/divide/remainder: costlier integer ops
	CatFPALU
	CatFMA
	CatFPDiv // FP divide/sqrt: costlier FP ops
	CatMove  // register moves and immediates
	CatLoad
	CatStore
	CatBranch
	CatAmnesic // RCMP / RTN / REC bookkeeping
	NumCategories
)

var catNames = [NumCategories]string{
	CatNop: "nop", CatIntALU: "int-alu", CatIntMul: "int-mul",
	CatFPALU: "fp-alu", CatFMA: "fma", CatFPDiv: "fp-div", CatMove: "move",
	CatLoad: "load", CatStore: "store", CatBranch: "branch",
	CatAmnesic: "amnesic",
}

func (c Category) String() string {
	if int(c) < len(catNames) {
		return catNames[c]
	}
	return fmt.Sprintf("cat(%d)", uint8(c))
}

// CategoryOf returns the energy-accounting category of an opcode.
func CategoryOf(op Op) Category {
	switch op {
	case NOP:
		return CatNop
	case LI, MOV:
		return CatMove
	case ADD, ADDI, SUB, AND, OR, XOR, SHL, SHR, SLT, SEQ:
		return CatIntALU
	case MUL, DIV, REM:
		return CatIntMul
	case FADD, FSUB, FNEG, FABS, FMIN, FMAX, I2F, F2I:
		return CatFPALU
	case FMUL:
		return CatFPALU
	case FMA:
		return CatFMA
	case FDIV, FSQRT:
		return CatFPDiv
	case LD:
		return CatLoad
	case ST:
		return CatStore
	case BEQ, BNE, BLT, BGE, JMP, HALT:
		return CatBranch
	case RCMP, RTN, REC:
		return CatAmnesic
	default:
		return CatNop
	}
}

// IsBranch reports whether op may redirect control flow.
func IsBranch(op Op) bool {
	switch op {
	case BEQ, BNE, BLT, BGE, JMP, RCMP, RTN:
		return true
	}
	return false
}

// WritesDst reports whether op writes its Dst register.
func WritesDst(op Op) bool {
	switch op {
	case NOP, ST, BEQ, BNE, BLT, BGE, JMP, HALT, RTN, REC:
		return false
	}
	return true
}

// ReadsDst reports whether op reads its Dst register as an input
// (only FMA: dst = src1*src2 + dst).
func ReadsDst(op Op) bool { return op == FMA }

// Recomputable reports whether op may appear inside a recomputation slice.
// Slices consist of register-to-register compute instructions only: by
// construction they contain no stores, no control flow, and interior loads
// are recursively replaced by their own producers (§3.1.1). Leaf loads from
// read-only memory are the single exception, handled by the compiler.
func Recomputable(op Op) bool {
	switch CategoryOf(op) {
	case CatIntALU, CatIntMul, CatFPALU, CatFMA, CatFPDiv, CatMove:
		return true
	}
	return false
}

// Instr is one instruction. Interpretation of the fields depends on Op; see
// the opcode comments. The amnesic fields annotate RCMP and REC:
//
//   - RCMP: Dst/Src1/Imm are the replaced load's operands, Target is the
//     absolute index of the slice entry point, SliceID identifies the slice.
//   - REC: SliceID identifies the slice, LeafAddr is the absolute index of
//     the leaf instruction (inside the slice body) whose inputs are being
//     checkpointed, and Src1/Src2 are the registers to checkpoint.
type Instr struct {
	Op         Op
	Dst        Reg
	Src1, Src2 Reg
	Imm        int64

	// Amnesic annotations.
	SliceID  int32
	Target   int32
	LeafAddr int32
}

// Uses returns the registers read by the instruction (up to three, with
// FMA reading its destination). R0 reads are included; callers that care
// about dependences typically skip R0.
func (in Instr) Uses() []Reg {
	var out []Reg
	switch in.Op {
	case NOP, LI, JMP, HALT, RTN:
	case MOV, FNEG, FSQRT, FABS, I2F, F2I, ADDI:
		out = append(out, in.Src1)
	case LD, RCMP:
		out = append(out, in.Src1)
	case ST:
		out = append(out, in.Src1, in.Src2)
	case REC:
		out = append(out, in.Src1, in.Src2)
	case FMA:
		out = append(out, in.Src1, in.Src2, in.Dst)
	default:
		out = append(out, in.Src1, in.Src2)
	}
	return out
}

// Def returns the register written by the instruction and whether one is
// written at all.
func (in Instr) Def() (Reg, bool) {
	if WritesDst(in.Op) {
		return in.Dst, true
	}
	return 0, false
}

func (in Instr) String() string {
	switch in.Op {
	case NOP, HALT, RTN:
		return in.Op.String()
	case LI:
		return fmt.Sprintf("li %s, %d", in.Dst, in.Imm)
	case ADDI:
		return fmt.Sprintf("addi %s, %s, %d", in.Dst, in.Src1, in.Imm)
	case MOV, FNEG, FSQRT, FABS, I2F, F2I:
		return fmt.Sprintf("%s %s, %s", in.Op, in.Dst, in.Src1)
	case LD:
		return fmt.Sprintf("ld %s, %d(%s)", in.Dst, in.Imm, in.Src1)
	case ST:
		return fmt.Sprintf("st %s, %d(%s)", in.Src2, in.Imm, in.Src1)
	case BEQ, BNE, BLT, BGE:
		return fmt.Sprintf("%s %s, %s, @%d", in.Op, in.Src1, in.Src2, in.Imm)
	case JMP:
		return fmt.Sprintf("jmp @%d", in.Imm)
	case RCMP:
		return fmt.Sprintf("rcmp %s, %d(%s), slice=%d@%d", in.Dst, in.Imm, in.Src1, in.SliceID, in.Target)
	case REC:
		return fmt.Sprintf("rec slice=%d leaf=@%d, %s, %s", in.SliceID, in.LeafAddr, in.Src1, in.Src2)
	default:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Dst, in.Src1, in.Src2)
	}
}

// Validate checks structural well-formedness of the instruction against a
// program of length progLen (for branch targets). It does not check amnesic
// slice linkage; the compiler package validates annotated programs.
func (in Instr) Validate(progLen int) error {
	if !in.Op.Valid() {
		return fmt.Errorf("invalid opcode %d", uint8(in.Op))
	}
	if !in.Dst.Valid() || !in.Src1.Valid() || !in.Src2.Valid() {
		return fmt.Errorf("%s: register out of range", in)
	}
	if IsBranch(in.Op) && in.Op != RTN && in.Op != RCMP {
		if in.Imm < 0 || in.Imm >= int64(progLen) {
			return fmt.Errorf("%s: branch target %d out of range [0,%d)", in, in.Imm, progLen)
		}
	}
	if in.Op == RCMP && (in.Target < 0 || int(in.Target) >= progLen) {
		return fmt.Errorf("%s: slice target out of range", in)
	}
	return nil
}

// Program is an executable sequence of instructions. Execution begins at
// index 0 and ends at a HALT (or by running off the end, which is an error).
//
// Because of the decode cache, Code must not be mutated after the first
// Decoded call; mutate a Clone instead (the cache is not copied).
type Program struct {
	Code []Instr
	// Name labels the program in reports.
	Name string

	// dec caches the pre-decoded form; built lazily by Decoded. The Once
	// makes concurrent first use safe (the harness runs several policies
	// over one shared Program). A typed pointer (rather than an atomic
	// one) keeps Programs comparable with reflect.DeepEqual: two
	// independently decoded caches of equal code are deeply equal.
	decOnce sync.Once
	dec     *Decoded
}

// Decoded returns the pre-decoded form of the program, building and
// caching it on first use.
func (p *Program) Decoded() *Decoded {
	p.decOnce.Do(func() { p.dec = decode(p.Code) })
	return p.dec
}

// Bytes returns the bytes the program keeps resident: its code and the
// pre-decoded form its first run builds.
func (p *Program) Bytes() int64 {
	var d Decoded
	per := unsafe.Sizeof(Instr{}) + unsafe.Sizeof(d.Kind[0]) + unsafe.Sizeof(d.Op[0]) + unsafe.Sizeof(d.Cat[0]) +
		unsafe.Sizeof(d.Dst[0]) + unsafe.Sizeof(d.Src1[0]) + unsafe.Sizeof(d.Src2[0]) + unsafe.Sizeof(d.Imm[0]) + unsafe.Sizeof(d.Target[0])
	return int64(len(p.Code))*int64(per) + int64(len(p.Name))
}

// Validate checks every instruction.
func (p *Program) Validate() error {
	for pc, in := range p.Code {
		if err := in.Validate(len(p.Code)); err != nil {
			return fmt.Errorf("pc %d: %w", pc, err)
		}
	}
	return nil
}

// Clone returns a deep copy of the program.
func (p *Program) Clone() *Program {
	code := make([]Instr, len(p.Code))
	copy(code, p.Code)
	return &Program{Code: code, Name: p.Name}
}

// Len returns the instruction count.
func (p *Program) Len() int { return len(p.Code) }
