package workloads

import (
	"github.com/amnesiac-sim/amnesiac/internal/asm"
	"github.com/amnesiac-sim/amnesiac/internal/isa"
)

// Register conventions shared by the kernels. Each kernel documents its own
// use; these names only fix the broad roles so the kernels stay readable.
const (
	rZero = isa.R0

	// rIdx is the canonical "semantic index" register: producer chains
	// consume it, and consumer loops must materialize the index of the
	// element being loaded into it so the live-register binding can
	// recompute the value (see internal/compiler validation).
	rIdx = isa.Reg(4)

	// rOff / rAddr are scratch for address arithmetic; rSh holds the
	// constant 3 (word shift).
	rOff  = isa.Reg(6)
	rSh   = isa.Reg(7)
	rAddr = isa.Reg(12)

	// rOne holds 1 for loop increments.
	rOne = isa.Reg(15)

	// Checksum/output registers, compared against classic execution.
	rOut0 = isa.Reg(20)
	rOut1 = isa.Reg(21)
)

// intChain emits a chain of `ops` integer instructions deriving a value
// from rIdx into dst, using t1/t2 as alternating temporaries and the
// pre-loaded constant register rC (whose LI producer the compiler can
// expand). The chain is pure forward dataflow: every step writes a register
// read only by the next step, so the whole chain is recomputable from rIdx.
func intChain(b *asm.Builder, dst, t1, t2, rC isa.Reg, ops int, seed int64) {
	if ops < 1 {
		ops = 1
	}
	cur, other := t1, t2
	b.Mul(cur, rIdx, rC)
	for k := 1; k < ops; k++ {
		switch k % 4 {
		case 0:
			b.Mul(other, cur, rC)
		case 1:
			b.Addi(other, cur, seed+int64(k))
		case 2:
			b.Xor(other, cur, rC)
		case 3:
			b.Addi(other, cur, seed^int64(3*k))
		}
		cur, other = other, cur
	}
	if cur != dst {
		b.Mov(dst, cur)
	}
}

// fpChain emits a chain of `ops` floating-point instructions deriving a
// value from rIdx into dst. The first step converts the index to float;
// subsequent steps alternate multiply/add/sub with the constant register rC
// (pre-loaded with an LF). No divides or square roots: chains stay cheap and
// exactly reproducible.
func fpChain(b *asm.Builder, dst, t1, t2, rC isa.Reg, ops int) {
	if ops < 2 {
		ops = 2
	}
	cur, other := t1, t2
	b.I2f(cur, rIdx)
	for k := 1; k < ops; k++ {
		switch k % 3 {
		case 0:
			b.Fadd(other, cur, rC)
		case 1:
			b.Fmul(other, cur, rC)
		case 2:
			b.Fsub(other, cur, rC)
		}
		cur, other = other, cur
	}
	if cur != dst {
		b.Mov(dst, cur)
	}
}

// storeIdx emits a store of val into base[rIdx] (addr = rBase + rIdx*8).
func storeIdx(b *asm.Builder, rBase, val isa.Reg) {
	b.Shl(rOff, rIdx, rSh)
	b.Add(rAddr, rBase, rOff)
	b.St(rAddr, 0, val)
}

// loadIdx emits a load of base[rIdx] into dst.
func loadIdx(b *asm.Builder, rBase, dst isa.Reg) {
	b.Shl(rOff, rIdx, rSh)
	b.Add(rAddr, rBase, rOff)
	b.Ld(dst, rAddr, 0)
}

// fastMix is a lean three-way index distribution over a derived array laid
// out as [hot window | cold region | L2 region]. All region sizes are
// powers of two and all loop constants live in the registers below, so the
// per-iteration selection costs only ~5 instructions — keeping consumer
// overhead from diluting the energy picture the way a naive modulo-based
// selector would.
type fastMix struct {
	// Out of every denom (power of 2) iterations, hot hit the L1 window
	// and l2 walk the L2 region; the rest stride the cold region.
	hot, l2, denom int64
	// Region sizes in words; all powers of two. l2W may be 0.
	hotW, l2W, coldW int64
	// Odd strides for the l2 and cold walks.
	l2Stride, coldStride int64
}

// Registers reserved for fastMix loop constants.
const (
	rMxDenom    = isa.Reg(24) // denom-1
	rMxHotCnt   = isa.Reg(25) // hot threshold
	rMxL2Cnt    = isa.Reg(26) // hot+l2 threshold
	rMxHotMask  = isa.Reg(27) // hotW-1
	rMxL2Str    = isa.Reg(28) // l2 stride
	rMxL2Mask   = isa.Reg(29) // l2W-1
	rMxColdStr  = isa.Reg(30) // cold stride
	rMxColdMask = isa.Reg(31) // coldW-1
)

// setup loads the fastMix constants; call once before the consumer loop.
func (x fastMix) setup(b *asm.Builder) {
	b.Li(rMxDenom, x.denom-1)
	b.Li(rMxHotCnt, x.hot)
	b.Li(rMxL2Cnt, x.hot+x.l2)
	b.Li(rMxHotMask, x.hotW-1)
	if x.l2W > 0 {
		b.Li(rMxL2Str, x.l2Stride)
		b.Li(rMxL2Mask, x.l2W-1)
	}
	b.Li(rMxColdStr, x.coldStride)
	b.Li(rMxColdMask, x.coldW-1)
}

// emit computes this iteration's index into rIdx from the loop counter rC
// using rT as scratch. Layout: hot = [0,hotW), cold = [hotW, hotW+coldW),
// l2 = [hotW+coldW, total). Control rejoins at the returned label, which
// the caller must place immediately after.
func (x fastMix) emit(b *asm.Builder, rC, rT isa.Reg, prefix string) (join string) {
	join = prefix + "_join"
	hotL := prefix + "_hot"
	l2L := prefix + "_l2"
	b.And(rT, rC, rMxDenom)
	b.Blt(rT, rMxHotCnt, hotL)
	if x.l2 > 0 {
		b.Blt(rT, rMxL2Cnt, l2L)
	}
	// Cold stride walk.
	b.Mul(rIdx, rC, rMxColdStr)
	b.And(rIdx, rIdx, rMxColdMask)
	b.Addi(rIdx, rIdx, x.hotW)
	b.Jmp(join)
	if x.l2 > 0 {
		b.Label(l2L)
		b.Mul(rIdx, rC, rMxL2Str)
		b.And(rIdx, rIdx, rMxL2Mask)
		b.Addi(rIdx, rIdx, x.hotW+x.coldW)
		b.Jmp(join)
	}
	b.Label(hotL)
	b.And(rIdx, rC, rMxHotMask)
	return join
}

// pow2 returns the largest power of two <= max(v*scale, lo).
func pow2(v int, scale float64, lo int) int64 {
	n := int(float64(v) * scale)
	if n < lo {
		n = lo
	}
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return int64(p)
}
