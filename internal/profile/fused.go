package profile

import (
	"fmt"
	"slices"

	"github.com/amnesiac-sim/amnesiac/internal/cpu"
	"github.com/amnesiac-sim/amnesiac/internal/energy"
	"github.com/amnesiac-sim/amnesiac/internal/isa"
	"github.com/amnesiac-sim/amnesiac/internal/mem"
	"github.com/amnesiac-sim/amnesiac/internal/trace"
)

// The fused collector is a dedicated profiling interpreter: instead of
// observing a generic run per retired instruction (one indirect call and
// several map operations each, as CollectReference does on the reference
// stepper), it executes the program itself — the same pre-decoded
// dispatch, register masking, and flat-arena data micro-TLB as the shared
// dispatch core (internal/exec) — and interleaves dependence tracking
// inline. Because a profiling run's energy
// account is never observed (Profile carries no energy), the loop drops
// energy/time accounting entirely and keeps only what the Profile needs:
// the cache hierarchy still evolves access by access (service levels feed
// PrLi), and the dynamic-instruction budget still bounds the run.
//
// The dependence shadow is a second mem.Memory at the data's own
// addresses: one shadow word per data word. Data and shadow are each read
// and written through a two-entry window cache (winCache), so the memory
// layout — flat windows, their growth, the page map — is mem's alone, and
// the per-access bookkeeping is a subtract, compare and index. A shadow
// word is 0 while its data word was never stored and never touched. A stored word holds the tag bit, the last store's PC and the
// stored value's producer. An unwritten word holds the PCs (plus one) of
// up to two distinct loads that read it — read-only tracking is a
// store-time invalidation — or touchSpilled once a third one did, when
// its set lives in touchSpill.
//
// Hot loops replay (hot.go): a loop head crossing the trace engine's
// default threshold is recorded for one iteration, through the same
// trace.Engine arrivals and recording steps as exec.Run, and replayed with
// one guard per conditional branch. Replay does the per-access load and
// store work through the same helpers as the interpreter (load, store) and
// adds the iteration's register edges and instruction counts once per
// replay.

// Shadow word encodings (see above).
const (
	// stored tags a stored word: bits 32-62 hold the last store's PC, bits
	// 0-31 the stored value's producer (an int32, NoProducer included).
	stored uint64 = 1 << 63
	// touchSpilled marks an unwritten word touched by more than two load
	// PCs. A touched word holds its first PC plus one in bits 0-31 and its
	// second (0 = none) in bits 32-62; no PC plus one fills 32 bits.
	touchSpilled uint64 = 1<<32 - 1
)

// winCache is a two-entry cache of one private mem.Memory's flat windows,
// addressed by word index: the primary arena, which load and store check
// inline (a subtract, compare and index), and the window of the last
// access that missed it, which their out-of-line miss path checks before
// going through the memory. Both entries are bounded by the window's
// writable prefix, which for a private memory is the whole window;
// keeping that bound in a field is what lets load and store inline.
type winCache struct {
	b0, n0 uint64 // arena: word index of w0[0], writable prefix
	w0     []uint64
	b1, n1 uint64 // last-missed window
	w1     []uint64
	m      *mem.Memory
}

func newWinCache(m *mem.Memory) winCache {
	c := winCache{m: m}
	c.b0, c.w0, c.n0 = m.ArenaViewW()
	return c
}

func (c *winCache) load(w uint64) uint64 {
	if off := w - c.b0; off < c.n0 {
		return c.w0[off]
	}
	return c.loadMiss(w)
}

func (c *winCache) store(w, v uint64) {
	if off := w - c.b0; off < c.n0 {
		c.w0[off] = v
	} else {
		c.storeMiss(w, v)
	}
}

func (c *winCache) loadMiss(w uint64) uint64 {
	if off := w - c.b1; off < c.n1 {
		return c.w1[off]
	}
	if b, words, n, ok := c.m.WindowForW(w << 3); ok {
		c.b1, c.w1, c.n1 = b, words, n
	}
	return c.m.Load(w << 3)
}

// storeMiss stores through the memory when word w is in neither entry;
// the store may anchor, grow or reallocate the window holding w, so both
// entries are re-fetched after it.
func (c *winCache) storeMiss(w, v uint64) {
	if off := w - c.b1; off < c.n1 {
		c.w1[off] = v
		return
	}
	c.m.Store(w<<3, v)
	c.b0, c.w0, c.n0 = c.m.ArenaViewW()
	if b, words, n, ok := c.m.WindowForW(w << 3); ok {
		c.b1, c.w1, c.n1 = b, words, n
	}
}

// fusedCollector holds the state of one Collect run that the interpreter
// and hot-loop replay share: the profile being built, the machine, and
// the data and shadow memories.
type fusedCollector struct {
	prof *Profile
	code []isa.Instr // error texts
	hier *mem.Hierarchy
	l1   *mem.Cache

	data, shadow winCache
	touchSpill   map[uint64][]int32 // word -> touch set, when >2 distinct PCs
	roFalse      []bool             // per load PC: touched a written address
	// consCache short-circuits the consumed-by set insert: per load PC, the
	// last two store PCs already recorded, as the upper half of their
	// shadow words (never 0), since loads overwhelmingly re-consume the
	// same static stores.
	consCache [][2]uint32

	hot hotLoops
}

// touch records that load pc read the unwritten word w, whose shadow word
// is s, deduplicating against the inline PCs and the spill set.
func (c *fusedCollector) touch(w, s uint64, pc int32) {
	p := uint64(pc) + 1
	switch {
	case s == 0:
		c.shadow.store(w, p)
	case uint32(s) == uint32(p) || s>>32 == p:
	case s == touchSpilled:
		if !slices.Contains(c.touchSpill[w], pc) {
			c.touchSpill[w] = append(c.touchSpill[w], pc)
		}
	case s>>32 == 0:
		c.shadow.store(w, s|p<<32)
	default:
		c.touchSpill[w] = []int32{int32(uint32(s)) - 1, int32(s>>32) - 1, pc}
		c.shadow.store(w, touchSpilled)
	}
}

// invalidate marks every load PC that touched the unwritten word w, whose
// shadow word is s, as not-read-only: the word is being stored to.
func (c *fusedCollector) invalidate(w, s uint64) {
	if s == touchSpilled {
		for _, p := range c.touchSpill[w] {
			c.roFalse[p] = true
		}
		delete(c.touchSpill, w)
		return
	}
	c.roFalse[uint32(s)-1] = true
	if t1 := s >> 32; t1 != 0 {
		c.roFalse[t1-1] = true
	}
}

// buildRecMasks precomputes, per static instruction, which operand slots
// the profiler records producers for (bit 0 = Src1, bit 1 = Src2, bit 2 =
// Dst-as-source), with the R0 skip and the per-opcode operand-arity rules
// of the reference collector's record() resolved once instead of per
// retired instruction.
func buildRecMasks(d *isa.Decoded) []uint8 {
	n := d.Len()
	masks := make([]uint8, n)
	for pc := 0; pc < n; pc++ {
		var m uint8
		switch d.Kind[pc] {
		case isa.KindCompute:
			op := d.Op[pc]
			if op == isa.LI { // LI has no register inputs
				break
			}
			if d.Src1[pc] != 0 {
				m |= 1
			}
			if d.Src2[pc] != 0 && op != isa.MOV && op != isa.ADDI && op != isa.FNEG &&
				op != isa.FSQRT && op != isa.FABS && op != isa.I2F && op != isa.F2I {
				m |= 2
			}
			if isa.ReadsDst(op) && d.Dst[pc] != 0 {
				m |= 4
			}
		case isa.KindLoad:
			if d.Src1[pc] != 0 {
				m |= 1 // address operand
			}
		case isa.KindStore, isa.KindCondBr:
			if d.Src1[pc] != 0 {
				m |= 1
			}
			if d.Src2[pc] != 0 {
				m |= 2
			}
		}
		masks[pc] = m
	}
	return masks
}

// load executes the profiled load at pc from addr: the hierarchy access,
// the data read, the LoadInfo update, and the shadow lookup that names
// the loaded value's producer and store. The interpreter and hot-loop
// replay both call it. The load's register edges are the caller's.
func (c *fusedCollector) load(pc int, addr uint64) (uint64, error) {
	if addr&7 != 0 {
		return 0, fmt.Errorf("profile: cpu: pc %d (%s): load: %w", pc, c.code[pc], mem.CheckAligned(addr))
	}
	level := energy.L1
	if !c.l1.ProbeHit(addr, false) {
		level = c.hier.AccessMiss(addr, false).Level
	}
	w := addr >> 3
	v := c.data.load(w)

	prof := c.prof
	li := prof.Loads[pc]
	if li == nil {
		li = &LoadInfo{PC: pc}
		prof.Loads[pc] = li
	}
	li.Count++
	li.ByLevel[level]++
	if li.lastValueSet && li.lastValue == v {
		li.SameValue++
	}
	li.lastValue, li.lastValueSet = v, true

	// Dependence shadow: who stored the loaded value?
	s := c.shadow.load(w)
	if s&stored == 0 {
		li.ValueProducer.Add(NoProducer)
		if !c.roFalse[pc] {
			c.touch(w, s, int32(pc))
		}
		return v, nil
	}
	li.ValueProducer.Add(int32(uint32(s)))
	c.roFalse[pc] = true
	cc := &c.consCache[pc]
	if st := uint32(s >> 32); cc[0] != st && cc[1] != st {
		stPC := st &^ uint32(stored>>32)
		set := prof.StoresConsumedBy[stPC]
		if set == nil {
			set = make(map[int]bool)
			prof.StoresConsumedBy[stPC] = set
		}
		set[pc] = true
		cc[1], cc[0] = cc[0], st
	}
	return v, nil
}

// store executes the profiled store at pc of val to addr, where vp
// produced the value register: the hierarchy access, the data write, the
// store count, and the shadow update (the word's store PC and value
// producer, invalidating read-only touches). The interpreter and hot-loop
// replay both call it. The store's register edges are the caller's.
func (c *fusedCollector) store(pc int, addr, val uint64, vp int32) error {
	if addr&7 != 0 {
		return fmt.Errorf("profile: cpu: pc %d (%s): store: %w", pc, c.code[pc], mem.CheckAligned(addr))
	}
	if !c.l1.ProbeHit(addr, true) {
		c.hier.AccessMiss(addr, true)
	}
	w := addr >> 3
	c.data.store(w, val)
	c.prof.StoreCount[pc]++

	if s := c.shadow.load(w); s != 0 && s&stored == 0 {
		c.invalidate(w, s)
	}
	c.shadow.store(w, stored|uint64(pc)<<32|uint64(uint32(vp)))
	return nil
}

// Collect profiles program p over a fresh default hierarchy and a *clone* of
// the provided initial memory (the caller's memory is left untouched), using
// the fused profiling interpreter. Its Profile is bit-identical to
// CollectReference's (the differential tests enforce this over the workload
// suite and generated programs) at a fraction of the cost.
func Collect(model *energy.Model, p *isa.Program, initial *mem.Memory) (*Profile, error) {
	return CollectLimit(model, p, initial, 0)
}

// CollectLimit is Collect with a dynamic-instruction budget (0 means
// cpu.DefaultMaxInstrs): a run past it fails with cpu.ErrInstrBudget.
func CollectLimit(model *energy.Model, p *isa.Program, initial *mem.Memory, maxInstrs uint64) (*Profile, error) {
	_ = model // the profiling run observes levels, not energy
	prof, _, err := collect(p, initial, maxInstrs, trace.DefaultConfig().Threshold)
	return prof, err
}

// collect is CollectLimit with the hot-loop threshold as a parameter (the
// tests force replay with 1). It also returns the number of instructions
// retired under replay.
func collect(p *isa.Program, initial *mem.Memory, maxInstrs uint64, threshold uint32) (*Profile, uint64, error) {
	if err := p.Validate(); err != nil {
		return nil, 0, fmt.Errorf("profile: cpu: %w", err)
	}
	prof := newProfile(p)
	d := p.Decoded()
	n := d.Len()
	kinds, ops := d.Kind[:n], d.Op[:n]
	dsts, src1s, src2s, imms, targets := d.Dst[:n], d.Src1[:n], d.Src2[:n], d.Imm[:n], d.Target[:n]
	recMask := buildRecMasks(d)

	hier := mem.NewDefaultHierarchy()
	shadow := mem.NewMemory()
	c := &fusedCollector{
		prof: prof, code: p.Code,
		hier: hier, l1: hier.L1,
		data:       newWinCache(initial.Clone()),
		shadow:     newWinCache(shadow),
		touchSpill: make(map[uint64][]int32),
		roFalse:    make([]bool, n),
		consCache:  make([][2]uint32, n),
	}
	h := &c.hot
	h.init(prof, d, recMask, threshold)

	var regs [isa.NumRegs]uint64
	// regProd tracks the static PC that last wrote each register
	// (NoProducer = initial state). Writes to R0 are discarded, so they
	// leave it alone: regProd[R0] stays NoProducer.
	var regProd [isa.NumRegs]int32
	for i := range regProd {
		regProd[i] = NoProducer
	}

	producers := prof.Producers
	instrCount := prof.InstrCount
	var instrs uint64
	max := maxInstrs
	if max == 0 {
		max = cpu.DefaultMaxInstrs
	}

	// slow selects the loop-top slow path, as in exec.Run: trace.Interpret
	// interprets, trace.Replay replays the hotTrace headed at pc, and
	// trace.Record takes a recording step first.
	slow := trace.Interpret
	var rerr error
	pc := 0
loop:
	for {
		if uint(pc) >= uint(n) {
			rerr = fmt.Errorf("profile: cpu: pc %d out of range (program %q, %d instrs)", pc, p.Name, n)
			break loop
		}
		if instrs >= max {
			rerr = fmt.Errorf("profile: %w (%d)", cpu.ErrInstrBudget, max)
			break loop
		}
		if slow != trace.Interpret {
			if slow == trace.Replay {
				slow = trace.Interpret
				if pc, instrs, rerr = c.replay(h.hot[pc], &regs, &regProd, instrs, max); rerr != nil {
					break loop
				}
				continue loop
			}
			if slow = h.record(pc); slow == trace.Replay {
				continue loop
			}
		}
		switch kinds[pc] {
		case isa.KindCompute:
			if m := recMask[pc]; m != 0 {
				pp := &producers[pc]
				if m&1 != 0 {
					pp[0].Add(regProd[src1s[pc]&31])
				}
				if m&2 != 0 {
					pp[1].Add(regProd[src2s[pc]&31])
				}
				if m&4 != 0 {
					pp[2].Add(regProd[dsts[pc]&31])
				}
			}
			// Hot loops replay, so the interpreter evaluates through
			// isa.EvalComputeOp rather than an inline fast set.
			v := isa.EvalComputeOp(ops[pc], imms[pc], regs[src1s[pc]&31], regs[src2s[pc]&31], regs[dsts[pc]&31])
			if dst := dsts[pc] & 31; dst != 0 {
				regs[dst] = v
				regProd[dst] = int32(pc)
			}
			instrCount[pc]++
			instrs++
			pc++
		case isa.KindLoad:
			if recMask[pc]&1 != 0 {
				producers[pc][0].Add(regProd[src1s[pc]&31]) // address operand
			}
			v, err := c.load(pc, regs[src1s[pc]&31]+uint64(imms[pc]))
			if err != nil {
				rerr = err
				break loop
			}
			// A load is a register def for dependence purposes.
			if dst := dsts[pc] & 31; dst != 0 {
				regs[dst] = v
				regProd[dst] = int32(pc)
			}
			instrCount[pc]++
			instrs++
			pc++
		case isa.KindStore:
			vpReg := src2s[pc] & 31
			if m := recMask[pc]; m != 0 {
				pp := &producers[pc]
				if m&1 != 0 {
					pp[0].Add(regProd[src1s[pc]&31]) // address operand
				}
				if m&2 != 0 {
					pp[1].Add(regProd[vpReg]) // value operand
				}
			}
			vp := regProd[vpReg]
			if err := c.store(pc, regs[src1s[pc]&31]+uint64(imms[pc]), regs[vpReg], vp); err != nil {
				rerr = err
				break loop
			}
			prof.StoreValueProducer[pc].Add(vp)
			instrCount[pc]++
			instrs++
			pc++
		case isa.KindCondBr:
			if m := recMask[pc]; m != 0 {
				pp := &producers[pc]
				if m&1 != 0 {
					pp[0].Add(regProd[src1s[pc]&31])
				}
				if m&2 != 0 {
					pp[1].Add(regProd[src2s[pc]&31])
				}
			}
			instrCount[pc]++
			instrs++
			if isa.BranchTaken(ops[pc], regs[src1s[pc]&31], regs[src2s[pc]&31]) {
				t := int(targets[pc])
				if t <= pc && slow == trace.Interpret {
					slow = h.eng.Arrive(t)
				}
				pc = t
			} else {
				pc++
			}
		case isa.KindJmp:
			instrCount[pc]++
			instrs++
			t := int(targets[pc])
			if t <= pc && slow == trace.Interpret {
				slow = h.eng.Arrive(t)
			}
			pc = t
		case isa.KindNop:
			instrCount[pc]++
			instrs++
			pc++
		case isa.KindHalt:
			// HALT ends the run uncounted; the reference collector skips
			// it too.
			break loop
		case isa.KindRcmp, isa.KindRtn, isa.KindRec:
			rerr = fmt.Errorf("profile: cpu: pc %d (%s): amnesic opcode %s on classic core", pc, p.Code[pc], ops[pc])
			break loop
		default:
			rerr = fmt.Errorf("profile: cpu: pc %d (%s): unimplemented opcode %s", pc, p.Code[pc], ops[pc])
			break loop
		}
	}
	if rerr != nil {
		return nil, 0, rerr
	}
	prof.TotalDynamic = instrs

	// Finalize per-load read-only classification: a load PC is read-only
	// unless some address it touched was stored to (before or after the
	// touch — store-time invalidation plus the written-at-touch check cover
	// both orders, matching the reference's end-of-run sweep).
	for pc, li := range prof.Loads {
		if li != nil {
			prof.LoadAllReadOnly[pc] = !c.roFalse[pc]
		}
	}
	// The written set: every word whose shadow carries the stored tag,
	// visited in ascending order.
	shadow.EachPage(func(w uint64, words []uint64) {
		for i, s := range words {
			if s&stored != 0 {
				prof.Written = mem.AppendWord(prof.Written, w+uint64(i))
			}
		}
	})
	return prof, h.eng.ReplayedInstrs, nil
}
