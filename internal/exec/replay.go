package exec

import (
	"fmt"

	"github.com/amnesiac-sim/amnesiac/internal/energy"
	"github.com/amnesiac-sim/amnesiac/internal/isa"
	"github.com/amnesiac-sim/amnesiac/internal/mem"
	"github.com/amnesiac-sim/amnesiac/internal/trace"
)

// replayShared is the state Run and replayTrace share: the machine
// pointers, the error-text inputs, the run's event counts, and the trace
// engine. Run builds one per execution and passes it by pointer so the hot
// arguments stay scalar.
type replayShared struct {
	l1        *mem.Cache
	hier      *mem.Hierarchy
	memory    *mem.Memory
	regs      *[isa.NumRegs]uint64
	nopSkips  *uint64
	storeHook func(addr, val uint64)
	code      []isa.Instr
	pfx       string
	max       uint64

	// The run's trace engine. A failing guard is an arrival at its side
	// exit's target (trace.Engine.Arrive): it chains directly into the
	// target's trace when one exists, and counts toward the target's own
	// trace when none does, so hot exit paths become lateral traces and
	// replay rarely returns to the interpreter.
	eng *trace.Engine

	// The run's event counts (deltas), folded into the account at exit.
	// byCat is sized to a power of two so a category masked with &15 needs
	// no bounds check; categories are < isa.NumCategories (≤ 16).
	byCat                   [16]uint64
	loadsAt, storesAt, wbAt [energy.NumLevels]uint64

	// Aux-replay state (amnesic runs): the live handler CRec/CRcmp ops call
	// back into, and the account it counts into. Cold-path only.
	aux  Aux
	acct *energy.Account

	// The watch CWatch ops call (watched runs). Cold-path only.
	watch *Watch
}

// miss services an access the L1 probe missed through the rest of the
// hierarchy, counts the dirty writebacks it caused, and returns the level
// that serviced it.
func (sh *replayShared) miss(addr uint64, write bool) energy.Level {
	res := sh.hier.AccessMiss(addr, write)
	sh.wbAt[energy.L2] += uint64(res.WritebackL2)
	sh.wbAt[energy.Mem] += uint64(res.WritebackMem)
	return res.Level
}

// fold adds the run's event counts into a.
func (sh *replayShared) fold(a *energy.Account) {
	for c := range a.ByCategory {
		a.ByCategory[c] += sh.byCat[c]
	}
	for l := energy.L1; l < energy.NumLevels; l++ {
		ld, st := sh.loadsAt[l], sh.storesAt[l]
		a.LoadsAt[l] += ld
		a.StoresAt[l] += st
		a.Writebacks[l] += sh.wbAt[l]
		a.Loads += ld
		a.Stores += st
		a.ByCategory[isa.CatLoad] += ld
		a.ByCategory[isa.CatStore] += st
	}
}

// memWin is the two-entry flat-window data micro-TLB (see Run), threaded
// through replay because stores may grow memory and re-anchor the windows.
// arenaWN/w2WN are the writable-prefix lengths bounding the store fast
// path — mem's copy-on-write barrier (see Run).
type memWin struct {
	arenaBase uint64
	arena     []uint64
	arenaWN   uint64
	w2base    uint64
	w2        []uint64
	w2WN      uint64
}

// replayTrace executes tr from its head until a guard side-exits, the
// instruction budget might be exceeded by the next iteration, or a replayed
// memory access faults. It exists as a separate function for register
// allocation, not modularity: inside Run the replay loop would share the
// frame with the whole interpreter switch.
//
// instrs is the budget-visible instruction count on entry; replayTrace
// returns it advanced, together with the pc where interpretation must
// resume (the side-exit continuation, the head on budget exhaustion, or the
// faulting original pc with a non-nil error). Every other event is counted
// into sh, and each trace entered, tr and every linked one, into
// Engine.Replays. Batchable ops advance instrs by their dead-charge weight
// (trace.Op.NBat); integer addition is exact, so the totals at every
// observation point are those of interpretation.
func replayTrace(sh *replayShared, tr *trace.Trace, instrs uint64, mw memWin) (uint64, memWin, int, error) {
	l1, hier, memory := sh.l1, sh.hier, sh.memory
	regs, storeHook, nopSkips := sh.regs, sh.storeHook, sh.nopSkips
	max := sh.max
	byCat := &sh.byCat

	var rerr error
	pc := int(tr.Head)
	trOps := tr.Ops
	need := tr.NInstr
	sh.eng.Replays++
chain:
	for instrs+need <= max {
		for i := range trOps {
			op := &trOps[i]
			switch op.Code {
			case trace.CAdd:
				v := regs[op.Src1&31] + regs[op.Src2&31]
				if dst := op.Dst & 31; dst != 0 {
					regs[dst] = v
				}
				instrs += uint64(op.NBat)
				byCat[op.Cat&15]++
			case trace.CAddi:
				v := regs[op.Src1&31] + uint64(op.Imm)
				if dst := op.Dst & 31; dst != 0 {
					regs[dst] = v
				}
				instrs += uint64(op.NBat)
				byCat[op.Cat&15]++
			case trace.CLi:
				if dst := op.Dst & 31; dst != 0 {
					regs[dst] = uint64(op.Imm)
				}
				instrs += uint64(op.NBat)
				byCat[op.Cat&15]++
			case trace.CMov:
				if dst := op.Dst & 31; dst != 0 {
					regs[dst] = regs[op.Src1&31]
				}
				instrs += uint64(op.NBat)
				byCat[op.Cat&15]++
			case trace.CSub:
				v := regs[op.Src1&31] - regs[op.Src2&31]
				if dst := op.Dst & 31; dst != 0 {
					regs[dst] = v
				}
				instrs += uint64(op.NBat)
				byCat[op.Cat&15]++
			case trace.CMul:
				v := regs[op.Src1&31] * regs[op.Src2&31]
				if dst := op.Dst & 31; dst != 0 {
					regs[dst] = v
				}
				instrs += uint64(op.NBat)
				byCat[op.Cat&15]++
			case trace.CAnd:
				v := regs[op.Src1&31] & regs[op.Src2&31]
				if dst := op.Dst & 31; dst != 0 {
					regs[dst] = v
				}
				instrs += uint64(op.NBat)
				byCat[op.Cat&15]++
			case trace.COr:
				v := regs[op.Src1&31] | regs[op.Src2&31]
				if dst := op.Dst & 31; dst != 0 {
					regs[dst] = v
				}
				instrs += uint64(op.NBat)
				byCat[op.Cat&15]++
			case trace.CXor:
				v := regs[op.Src1&31] ^ regs[op.Src2&31]
				if dst := op.Dst & 31; dst != 0 {
					regs[dst] = v
				}
				instrs += uint64(op.NBat)
				byCat[op.Cat&15]++
			case trace.CShl:
				v := regs[op.Src1&31] << (regs[op.Src2&31] & 63)
				if dst := op.Dst & 31; dst != 0 {
					regs[dst] = v
				}
				instrs += uint64(op.NBat)
				byCat[op.Cat&15]++
			case trace.CShr:
				v := regs[op.Src1&31] >> (regs[op.Src2&31] & 63)
				if dst := op.Dst & 31; dst != 0 {
					regs[dst] = v
				}
				instrs += uint64(op.NBat)
				byCat[op.Cat&15]++
			case trace.CSlt:
				var v uint64
				if int64(regs[op.Src1&31]) < int64(regs[op.Src2&31]) {
					v = 1
				}
				if dst := op.Dst & 31; dst != 0 {
					regs[dst] = v
				}
				instrs += uint64(op.NBat)
				byCat[op.Cat&15]++
			case trace.CSeq:
				var v uint64
				if regs[op.Src1&31] == regs[op.Src2&31] {
					v = 1
				}
				if dst := op.Dst & 31; dst != 0 {
					regs[dst] = v
				}
				instrs += uint64(op.NBat)
				byCat[op.Cat&15]++
			case trace.CAluGen:
				v := isa.EvalComputeOp(op.AOp, op.Imm, regs[op.Src1&31], regs[op.Src2&31], regs[op.Dst&31])
				if dst := op.Dst & 31; dst != 0 {
					regs[dst] = v
				}
				instrs += uint64(op.NBat)
				byCat[op.Cat&15]++
			case trace.CLoad:
				addr := regs[op.Src1&31] + uint64(op.Imm)
				if addr&7 != 0 {
					pc = int(op.PC)
					rerr = fmt.Errorf("%s: pc %d (%s): load: %w", sh.pfx, pc, sh.code[pc], mem.CheckAligned(addr))
					break chain
				}
				level := energy.L1
				if l1.ProbeHit(addr, false) {
					hier.Serviced[energy.L1]++
				} else {
					level = sh.miss(addr, false)
				}
				instrs++
				sh.loadsAt[level]++
				var v uint64
				if off := addr>>3 - mw.arenaBase; off < uint64(len(mw.arena)) {
					v = mw.arena[off]
				} else if off := addr>>3 - mw.w2base; off < uint64(len(mw.w2)) {
					v = mw.w2[off]
				} else {
					v = memory.Load(addr)
					mw.w2base, mw.w2, mw.w2WN, _ = memory.WindowForW(addr)
				}
				if dst := op.Dst & 31; dst != 0 {
					regs[dst] = v
				}
			case trace.CStore:
				addr := regs[op.Src1&31] + uint64(op.Imm)
				if addr&7 != 0 {
					pc = int(op.PC)
					rerr = fmt.Errorf("%s: pc %d (%s): store: %w", sh.pfx, pc, sh.code[pc], mem.CheckAligned(addr))
					break chain
				}
				level := energy.L1
				if l1.ProbeHit(addr, true) {
					hier.Serviced[energy.L1]++
				} else {
					level = sh.miss(addr, true)
				}
				instrs++
				sh.storesAt[level]++
				v := regs[op.Src2&31]
				if off := addr>>3 - mw.arenaBase; off < mw.arenaWN {
					mw.arena[off] = v
				} else if off := addr>>3 - mw.w2base; off < mw.w2WN {
					mw.w2[off] = v
				} else {
					memory.Store(addr, v)
					mw.arenaBase, mw.arena, mw.arenaWN = memory.ArenaViewW()
					mw.w2base, mw.w2, mw.w2WN, _ = memory.WindowForW(addr)
				}
				if storeHook != nil {
					storeHook(addr, v)
				}
			case trace.CNop:
				instrs += uint64(op.NBat)
				byCat[isa.CatNop]++
				if op.Elim {
					*nopSkips++
				}
			case trace.CBrCharge:
				instrs += uint64(op.NBat)
				byCat[isa.CatBranch]++
			case trace.CGuard:
				instrs += uint64(op.NBat)
				byCat[isa.CatBranch]++
				if isa.BranchTaken(op.BOp, regs[op.BSrc1&31], regs[op.BSrc2&31]) != op.Taken {
					// Cold path: go through sh rather than locals so the
					// engine is not live across the hot dispatch above.
					pc = int(op.ExitPC)
					if sh.eng.Arrive(pc) == trace.Replay {
						// Link: fall through into the exit target's trace
						// without returning to the interpreter.
						nt := sh.eng.Head(pc)
						sh.eng.Replays++
						trOps = nt.Ops
						need = nt.NInstr
						continue chain
					}
					break chain
				}
			case trace.CAluGuard:
				// ALU half.
				a, b := regs[op.Src1&31], regs[op.Src2&31]
				var v uint64
				switch op.AOp {
				case isa.ADD:
					v = a + b
				case isa.ADDI:
					v = a + uint64(op.Imm)
				case isa.LI:
					v = uint64(op.Imm)
				case isa.MOV:
					v = a
				case isa.SUB:
					v = a - b
				case isa.MUL:
					v = a * b
				case isa.SLT:
					if int64(a) < int64(b) {
						v = 1
					}
				case isa.SEQ:
					if a == b {
						v = 1
					}
				default:
					v = isa.EvalComputeOp(op.AOp, op.Imm, a, b, regs[op.Dst&31])
				}
				regs[op.Dst&31] = v // fusePair guarantees Dst != 0
				// Both halves retire whichever way the guard resolves; their
				// count is folded into this op's NBat (weight 2).
				instrs += uint64(op.NBat)
				byCat[op.Cat&15]++
				byCat[isa.CatBranch]++
				// Guard half (second original instruction).
				ga, gb := regs[op.BSrc1&31], regs[op.BSrc2&31]
				if op.Fwd&1 != 0 {
					ga = v
				}
				if op.Fwd&2 != 0 {
					gb = v
				}
				if isa.BranchTaken(op.BOp, ga, gb) != op.Taken {
					pc = int(op.ExitPC)
					if sh.eng.Arrive(pc) == trace.Replay {
						nt := sh.eng.Head(pc)
						sh.eng.Replays++
						trOps = nt.Ops
						need = nt.NInstr
						continue chain
					}
					break chain
				}
			case trace.CLoadAlu:
				// Load half.
				addr := regs[op.Src1&31] + uint64(op.Imm)
				if addr&7 != 0 {
					pc = int(op.PC)
					rerr = fmt.Errorf("%s: pc %d (%s): load: %w", sh.pfx, pc, sh.code[pc], mem.CheckAligned(addr))
					break chain
				}
				level := energy.L1
				if l1.ProbeHit(addr, false) {
					hier.Serviced[energy.L1]++
				} else {
					level = sh.miss(addr, false)
				}
				sh.loadsAt[level]++
				var v uint64
				if off := addr>>3 - mw.arenaBase; off < uint64(len(mw.arena)) {
					v = mw.arena[off]
				} else if off := addr>>3 - mw.w2base; off < uint64(len(mw.w2)) {
					v = mw.w2[off]
				} else {
					v = memory.Load(addr)
					mw.w2base, mw.w2, mw.w2WN, _ = memory.WindowForW(addr)
				}
				regs[op.Dst&31] = v // fusePair guarantees Dst != 0
				// ALU half (second original instruction).
				a, b := regs[op.BSrc1&31], regs[op.BSrc2&31]
				if op.Fwd&1 != 0 {
					a = v
				}
				if op.Fwd&2 != 0 {
					b = v
				}
				var r uint64
				switch op.AOp {
				case isa.ADD:
					r = a + b
				case isa.ADDI:
					r = a + uint64(op.Imm2)
				case isa.MOV:
					r = a
				case isa.SUB:
					r = a - b
				case isa.MUL:
					r = a * b
				case isa.AND:
					r = a & b
				case isa.OR:
					r = a | b
				case isa.XOR:
					r = a ^ b
				case isa.SLT:
					if int64(a) < int64(b) {
						r = 1
					}
				case isa.SEQ:
					if a == b {
						r = 1
					}
				default:
					r = isa.EvalComputeOp(op.AOp, op.Imm2, a, b, regs[op.Dst2&31])
				}
				if dst := op.Dst2 & 31; dst != 0 {
					regs[dst] = r
				}
				instrs += 2
				byCat[op.Cat2&15]++
			case trace.CAluStore:
				// ALU half.
				a, b := regs[op.Src1&31], regs[op.Src2&31]
				var v uint64
				switch op.AOp {
				case isa.ADD:
					v = a + b
				case isa.ADDI:
					v = a + uint64(op.Imm)
				case isa.LI:
					v = uint64(op.Imm)
				case isa.MOV:
					v = a
				case isa.SUB:
					v = a - b
				case isa.MUL:
					v = a * b
				case isa.AND:
					v = a & b
				case isa.OR:
					v = a | b
				case isa.XOR:
					v = a ^ b
				case isa.SLT:
					if int64(a) < int64(b) {
						v = 1
					}
				case isa.SEQ:
					if a == b {
						v = 1
					}
				default:
					v = isa.EvalComputeOp(op.AOp, op.Imm, a, b, regs[op.Dst&31])
				}
				regs[op.Dst&31] = v // fusePair guarantees Dst != 0
				instrs++
				byCat[op.Cat&15]++
				// Store half (second original instruction).
				base := regs[op.BSrc1&31]
				if op.Fwd&1 != 0 {
					base = v
				}
				val := regs[op.BSrc2&31]
				if op.Fwd&2 != 0 {
					val = v
				}
				addr := base + uint64(op.Imm2)
				if addr&7 != 0 {
					pc = int(op.PC2)
					rerr = fmt.Errorf("%s: pc %d (%s): store: %w", sh.pfx, pc, sh.code[pc], mem.CheckAligned(addr))
					break chain
				}
				level := energy.L1
				if l1.ProbeHit(addr, true) {
					hier.Serviced[energy.L1]++
				} else {
					level = sh.miss(addr, true)
				}
				instrs++
				sh.storesAt[level]++
				if off := addr>>3 - mw.arenaBase; off < mw.arenaWN {
					mw.arena[off] = val
				} else if off := addr>>3 - mw.w2base; off < mw.w2WN {
					mw.w2[off] = val
				} else {
					memory.Store(addr, val)
					mw.arenaBase, mw.arena, mw.arenaWN = memory.ArenaViewW()
					mw.w2base, mw.w2, mw.w2WN, _ = memory.WindowForW(addr)
				}
				if storeHook != nil {
					storeHook(addr, val)
				}
			case trace.CWatch:
				// Cold path: observe the state the next op is about to
				// read, as the interpreter's kindWatch case does.
				sh.watch.Observe(int(op.PC), regs, memory)
			case trace.CRec, trace.CRcmp:
				// Cold path: the live amnesic handler executes the op exactly
				// as the interpreter would — slice traversal, policy decision,
				// Hist/SFile/IBuff state, and accounting all take the same
				// code path. As in Run, the op's fetch is counted here, the
				// handler counts its own events into the account, and instrs
				// picks up what it retired.
				acct := sh.acct
				acct.Fetches++
				before := acct.Instrs
				var aerr error
				if op.Code == trace.CRec {
					sh.aux.ExecRec(int(op.PC))
				} else {
					aerr = sh.aux.ExecRcmp(int(op.PC))
				}
				instrs += acct.Instrs - before
				if aerr != nil {
					// The outcome guard: an erroring RCMP side-exits with the
					// interpreter's wrapped error at the faulting pc.
					pc = int(op.PC)
					rerr = aerr
					break chain
				}
				// An RCMP that fired recomputation retired slice-body
				// instructions beyond this iteration's NInstr, so the
				// chain-top budget check no longer covers the rest of the
				// iteration. Conservatively hand the tail to the interpreter,
				// which applies the exact per-instruction budget rule; when
				// the aux op closed the iteration, pc already holds the
				// current trace head.
				if instrs+need > max {
					if i+1 < len(trOps) {
						pc = int(trOps[i+1].PC)
					}
					break chain
				}
			}
		}
	}
	return instrs, mw, pc, rerr
}
