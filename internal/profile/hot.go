package profile

import (
	"slices"

	"github.com/amnesiac-sim/amnesiac/internal/isa"
	"github.com/amnesiac-sim/amnesiac/internal/trace"
)

// Hot-loop replay for the fused collector. Head detection and recording
// are the trace engine's, as in exec.Run: a taken back-edge is an arrival
// (trace.Engine.Arrive), and at the engine's default threshold the
// collector records one iteration of the loop through Engine.Step, which
// compiles it with trace.Build. A later arrival at the head replays that
// iteration as a dense loop body with one guard per conditional branch,
// until a guard fails (the interpreter resumes at the other successor),
// the next iteration might not fit the budget, or an access faults. There
// are no lateral heads and no linking: side exits return to the
// interpreter without arriving anywhere.
//
// Loads and stores keep their per-access work (load, store). Everything
// else the profile counts per instruction is fixed by the recorded path
// and by the register-producer table at entry, so replay adds it once, on
// exit (flush). Every operand read on the path is one of three register
// edges:
//
//   - static: an earlier instruction of the iteration wrote the register,
//     so its producer is that instruction on every iteration;
//   - carried: only the same or a later instruction of the iteration
//     writes it, so the first iteration reads the entry producer and every
//     later one the iteration's last writer;
//   - invariant: the iteration never writes it, so every iteration reads
//     the entry producer.
//
// Writes to R0 are discarded and define nothing. The table itself is left
// alone during replay (it is the entry table) and advanced on exit.

// Register edge kinds (see above).
const (
	edgeStatic uint8 = iota
	edgeCarried
	edgeInvariant
)

// regEdge is one operand read at path position pos, counted into dist.
// prod is the fixed producer of a static edge and the later-iteration
// producer of a carried one; reg is the register a carried or invariant
// edge reads the entry producer of.
type regEdge struct {
	dist *ProducerDist
	pos  int32
	prod int32
	reg  uint8
	kind uint8
}

// producer returns e's producer on the first iteration of a replay or on a
// later one, given the entry table.
func (e *regEdge) producer(first bool, entry *[isa.NumRegs]int32) int32 {
	if e.kind == edgeInvariant || (first && e.kind == edgeCarried) {
		return entry[e.reg]
	}
	return e.prod
}

// add counts n reads of e: for a carried edge the first reads the entry
// producer and the rest the last writer.
func (e *regEdge) add(n uint64, entry *[isa.NumRegs]int32) {
	switch e.kind {
	case edgeStatic:
		e.dist.AddN(e.prod, n)
	case edgeInvariant:
		e.dist.AddN(entry[e.reg], n)
	default:
		e.dist.AddN(entry[e.reg], 1)
		e.dist.AddN(e.prod, n-1)
	}
}

// regDef is one register definition on the path.
type regDef struct {
	pos, pc int32
	reg     uint8
}

// hotTrace is the profiler's side of one recorded loop iteration: the
// trace.Build output it replays, plus what replay needs to count the
// iteration in batches.
type hotTrace struct {
	*trace.Trace
	svp  []regEdge // per op: the stored value's producer (store ops only)
	path []int32   // the recorded PCs
	// edges lists the iteration's register edges — Producers and
	// StoreValueProducer — in path order; defs its register definitions.
	edges []regEdge
	defs  []regDef
}

// hotLoops is the collector's hot-loop state. A trace.Engine does head
// detection, recording, blacklisting and coverage; hot holds, per head with
// a built trace, the profiler's hotTrace for it.
type hotLoops struct {
	eng     *trace.Engine
	prof    *Profile // the profile whose distributions edges count into
	d       *isa.Decoded
	recMask []uint8
	hot     []*hotTrace
}

func (h *hotLoops) init(prof *Profile, d *isa.Decoded, recMask []uint8, threshold uint32) {
	h.eng = trace.NewEngine(trace.Config{Enable: true, Threshold: threshold}, d, nil, nil, false)
	h.prof, h.d, h.recMask = prof, d, recMask
	h.hot = make([]*hotTrace, d.Len())
}

// record is a recording step at pc, about to be interpreted (see
// trace.Engine.Step). When it closes the path it wraps the new trace in
// the head's hotTrace.
func (h *hotLoops) record(pc int) int {
	slow := h.eng.Step(pc)
	if slow == trace.Replay {
		h.hot[pc] = h.build(h.eng.Head(pc), h.eng.Path())
	}
	return slow
}

// defines returns the register the instruction at pc writes, if any.
func defines(d *isa.Decoded, pc int32) (uint8, bool) {
	if k := d.Kind[pc]; k != isa.KindCompute && k != isa.KindLoad {
		return 0, false
	}
	r := uint8(d.Dst[pc]) & 31
	return r, r != 0
}

// build wraps tr, compiled from the recorded path, in a hotTrace,
// classifying every operand the profile records into a register edge.
func (h *hotLoops) build(tr *trace.Trace, path []int32) *hotTrace {
	prof, d := h.prof, h.d
	ht := &hotTrace{Trace: tr, path: slices.Clone(path)}

	// last[r] is the position of r's latest definition before the current
	// one; final[r] that of its last definition in the iteration.
	var last, final [isa.NumRegs]int32
	for r := range last {
		last[r], final[r] = -1, -1
	}
	for i, pc := range path {
		if r, ok := defines(d, pc); ok {
			final[r] = int32(i)
		}
	}
	edge := func(dist *ProducerDist, pos int, r uint8) regEdge {
		e := regEdge{dist: dist, pos: int32(pos), reg: r, kind: edgeInvariant}
		switch {
		case last[r] >= 0:
			e.kind, e.prod = edgeStatic, path[last[r]]
		case final[r] >= 0:
			e.kind, e.prod = edgeCarried, path[final[r]]
		}
		return e
	}
	// The collector records no watch, so op i is path instruction i.
	ht.svp = make([]regEdge, len(path))
	for i, pc := range path {
		pp := &prof.Producers[pc]
		m := h.recMask[pc]
		if m&1 != 0 {
			ht.edges = append(ht.edges, edge(&pp[0], i, uint8(d.Src1[pc])&31))
		}
		if m&2 != 0 {
			ht.edges = append(ht.edges, edge(&pp[1], i, uint8(d.Src2[pc])&31))
		}
		if m&4 != 0 {
			ht.edges = append(ht.edges, edge(&pp[2], i, uint8(d.Dst[pc])&31))
		}
		if d.Kind[pc] == isa.KindStore {
			ht.svp[i] = edge(&prof.StoreValueProducer[pc], i, uint8(d.Src2[pc])&31)
			ht.edges = append(ht.edges, ht.svp[i])
		}
		if r, ok := defines(d, pc); ok {
			last[r] = int32(i)
			ht.defs = append(ht.defs, regDef{pos: int32(i), pc: pc, reg: r})
		}
	}
	return ht
}

// replay executes tr from its head (see the top of this file). instrs is
// the instruction count on entry; replay returns the pc where the
// interpreter resumes and the advanced count, or the faulting pc and its
// error. The most frequent compute ops are inline (measured: DESIGN.md,
// "Fused profiler"); the rest go through isa.EvalComputeOp.
func (c *fusedCollector) replay(tr *hotTrace, regs *[isa.NumRegs]uint64, regProd *[isa.NumRegs]int32, instrs, max uint64) (int, uint64, error) {
	ops := tr.Ops
	pc := int(tr.Head)
	var k uint64 // complete iterations
	var m int32  // instructions retired by the partial iteration
iter:
	for instrs+tr.NInstr <= max {
		first := k == 0
		for i := range ops {
			op := &ops[i]
			switch op.Code {
			case trace.CAdd:
				if dst := op.Dst & 31; dst != 0 {
					regs[dst] = regs[op.Src1&31] + regs[op.Src2&31]
				}
			case trace.CAddi:
				if dst := op.Dst & 31; dst != 0 {
					regs[dst] = regs[op.Src1&31] + uint64(op.Imm)
				}
			case trace.CLi:
				if dst := op.Dst & 31; dst != 0 {
					regs[dst] = uint64(op.Imm)
				}
			case trace.CMov:
				if dst := op.Dst & 31; dst != 0 {
					regs[dst] = regs[op.Src1&31]
				}
			case trace.CSub:
				if dst := op.Dst & 31; dst != 0 {
					regs[dst] = regs[op.Src1&31] - regs[op.Src2&31]
				}
			case trace.CMul:
				if dst := op.Dst & 31; dst != 0 {
					regs[dst] = regs[op.Src1&31] * regs[op.Src2&31]
				}
			case trace.CAnd:
				if dst := op.Dst & 31; dst != 0 {
					regs[dst] = regs[op.Src1&31] & regs[op.Src2&31]
				}
			case trace.CShl:
				if dst := op.Dst & 31; dst != 0 {
					regs[dst] = regs[op.Src1&31] << (regs[op.Src2&31] & 63)
				}
			case trace.CShr:
				if dst := op.Dst & 31; dst != 0 {
					regs[dst] = regs[op.Src1&31] >> (regs[op.Src2&31] & 63)
				}
			case trace.CLoad:
				v, err := c.load(int(op.PC), regs[op.Src1&31]+uint64(op.Imm))
				if err != nil {
					return int(op.PC), instrs, err
				}
				if dst := op.Dst & 31; dst != 0 {
					regs[dst] = v
				}
			case trace.CStore:
				vp := tr.svp[i].producer(first, regProd)
				if err := c.store(int(op.PC), regs[op.Src1&31]+uint64(op.Imm), regs[op.Src2&31], vp); err != nil {
					return int(op.PC), instrs, err
				}
			case trace.CNop, trace.CBrCharge:
			case trace.CGuard:
				if isa.BranchTaken(op.AOp, regs[op.Src1&31], regs[op.Src2&31]) != op.Taken {
					// Op i is path instruction i (see build): the exit
					// retires the guard and the i instructions before it.
					pc, m = int(op.ExitPC), int32(i+1)
					break iter
				}
			default: // the remaining single compute ops
				if v := isa.EvalComputeOp(op.AOp, op.Imm, regs[op.Src1&31], regs[op.Src2&31], regs[op.Dst&31]); op.Dst&31 != 0 {
					regs[op.Dst&31] = v
				}
			}
		}
		k++
		instrs += tr.NInstr
	}
	c.flush(tr, regProd, k, m)
	c.hot.eng.ReplayedInstrs += k*tr.NInstr + uint64(m)
	return pc, instrs + uint64(m), nil
}

// flush adds what k complete iterations of tr and a partial one of m
// instructions counted per instruction — InstrCount, register edges — and
// advances the register-producer table from entry to exit.
func (c *fusedCollector) flush(tr *hotTrace, regProd *[isa.NumRegs]int32, k uint64, m int32) {
	ic := c.prof.InstrCount
	if k > 0 {
		for _, pc := range tr.path {
			ic[pc] += k
		}
	}
	for _, pc := range tr.path[:m] {
		ic[pc]++
	}
	for i := range tr.edges {
		e := &tr.edges[i]
		n := k
		if e.pos < m {
			n++
		}
		if n == 0 {
			break // edges are in path order: the rest are past the partial iteration
		}
		e.add(n, regProd)
	}
	if k > 0 {
		for _, d := range tr.defs {
			regProd[d.reg] = d.pc
		}
	}
	for _, d := range tr.defs {
		if d.pos >= m {
			break
		}
		regProd[d.reg] = d.pc
	}
}
