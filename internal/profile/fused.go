package profile

import (
	"fmt"

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
// All address-keyed collector state is dense. For every flat window of the
// functional memory the collector mirrors a shadow window of per-word
// records — last store PC, the stored value's producer PC, and up to two
// load PCs that touched the word while it was unwritten (read-only
// tracking) — so the per-access bookkeeping is a subtract, compare, and a
// few array writes. Words outside every window (sparse page-map territory)
// spill to a map, exactly as the data itself does; when a later store
// anchors or grows a flat window over spilled words, their shadow records
// migrate into the dense form.
//
// Hot loops replay (hot.go): a loop head crossing the trace engine's
// default threshold is recorded for one iteration, through the same
// trace.Engine arrivals and recording steps as exec.Run, and replayed with
// one guard per conditional branch. Replay does the per-access load and
// store work through the same helpers as the interpreter (load, store) and
// adds the iteration's register edges and instruction counts once per
// replay.

// Shadow slot sentinels. Store-PC slots use slotEmpty for "never stored";
// touch slots use slotEmpty for "no touch recorded" and slotSpilled (in t0)
// for "this word's touch set overflowed into touchSpill".
const (
	slotEmpty   int32 = -1
	slotSpilled int32 = -2
)

// shadowWin is the dense per-word dependence shadow of one flat memory
// window: element i describes word base+i.
type shadowWin struct {
	base uint64  // word index of element 0
	vp   []int32 // producer PC of the last stored value (valid iff st >= 0)
	st   []int32 // last store PC; slotEmpty = never stored
	t0   []int32 // first load PC to touch the word while unwritten
	t1   []int32 // second distinct load PC; >2 distinct PCs spill
}

// spillEnt is the shadow record for a word outside every flat window.
type spillEnt struct {
	vp, st int32
	touch  []int32
}

// fusedCollector holds the state of one Collect run that the interpreter
// and hot-loop replay share: the profile being built, the machine, the
// data and shadow micro-TLBs, and the slow-path shadow state.
type fusedCollector struct {
	prof *Profile
	code []isa.Instr // error texts
	hier *mem.Hierarchy
	l1   *mem.Cache
	mem  *mem.Memory

	// Data micro-TLB (as in exec.Run): the primary arena plus the
	// last-missed region, re-fetched after any store that misses both.
	arenaBase, w2base uint64
	arena, w2         []uint64
	// Shadow micro-TLB: primary-arena shadow plus the last-resolved window.
	sh1, sh2 *shadowWin

	wins       []*shadowWin
	spill      map[uint64]*spillEnt
	touchSpill map[uint64][]int32 // word -> touch set, when >2 distinct PCs
	roFalse    []bool             // per load PC: touched a written address
	// consCache short-circuits the consumed-by set insert: per load PC, the
	// last two store PCs already recorded (loads overwhelmingly re-consume
	// the same static stores).
	consCache [][2]int32

	hot hotLoops
}

func newShadowWords(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = slotEmpty
	}
	return s
}

// winFor returns the shadow window anchored at base, creating or extending
// it to cover length words and migrating any spilled records it swallows.
func (c *fusedCollector) winFor(base uint64, length int) *shadowWin {
	for _, win := range c.wins {
		if win.base == base {
			if length > len(win.st) {
				c.extend(win, length)
			}
			return win
		}
	}
	win := &shadowWin{
		base: base,
		vp:   newShadowWords(length), st: newShadowWords(length),
		t0: newShadowWords(length), t1: newShadowWords(length),
	}
	c.wins = append(c.wins, win)
	c.migrate(win, 0)
	return win
}

func (c *fusedCollector) extend(win *shadowWin, length int) {
	old := len(win.st)
	grow := func(s []int32) []int32 {
		ns := make([]int32, length)
		copy(ns, s)
		for i := old; i < length; i++ {
			ns[i] = slotEmpty
		}
		return ns
	}
	win.vp, win.st, win.t0, win.t1 = grow(win.vp), grow(win.st), grow(win.t0), grow(win.t1)
	c.migrate(win, old)
}

// migrate moves spill records now covered by win's words [from, len) into
// the dense arrays. Windows grow rarely (doubling, like the memory's own
// regions), so the full map scan stays off the hot path.
func (c *fusedCollector) migrate(win *shadowWin, from int) {
	if len(c.spill) == 0 {
		return
	}
	lo, hi := win.base+uint64(from), win.base+uint64(len(win.st))
	for w, ent := range c.spill {
		if w < lo || w >= hi {
			continue
		}
		off := w - win.base
		win.vp[off], win.st[off] = ent.vp, ent.st
		switch len(ent.touch) {
		case 0:
		case 1:
			win.t0[off] = ent.touch[0]
		case 2:
			win.t0[off], win.t1[off] = ent.touch[0], ent.touch[1]
		default:
			c.touchSpill[w] = ent.touch
			win.t0[off] = slotSpilled
		}
		delete(c.spill, w)
	}
}

// winSlow resolves the shadow window for addr through the memory's window
// table, or (nil, 0) when addr lives in no flat region.
func (c *fusedCollector) winSlow(addr uint64) (*shadowWin, uint64) {
	base, words, ok := c.mem.WindowFor(addr)
	if !ok {
		return nil, 0
	}
	return c.winFor(base, len(words)), addr>>3 - base
}

func (c *fusedCollector) ensureSpill(w uint64) *spillEnt {
	ent := c.spill[w]
	if ent == nil {
		ent = &spillEnt{vp: NoProducer, st: slotEmpty}
		c.spill[w] = ent
	}
	return ent
}

// touchWin records that load pc read word w (at win[off]) while it was
// unwritten, deduplicating against the inline slots and the spill set.
func (c *fusedCollector) touchWin(win *shadowWin, off, w uint64, pc int32) {
	t0 := win.t0[off]
	switch {
	case t0 == slotEmpty:
		win.t0[off] = pc
	case t0 == pc || win.t1[off] == pc:
	case t0 == slotSpilled:
		list := c.touchSpill[w]
		for _, p := range list {
			if p == pc {
				return
			}
		}
		c.touchSpill[w] = append(list, pc)
	case win.t1[off] == slotEmpty:
		win.t1[off] = pc
	default:
		c.touchSpill[w] = []int32{t0, win.t1[off], pc}
		win.t0[off], win.t1[off] = slotSpilled, slotEmpty
	}
}

// invalidate marks every load PC that touched word w while it was unwritten
// as not-read-only (the word is being stored to) and clears the touch set.
func (c *fusedCollector) invalidate(win *shadowWin, off, w uint64) {
	t0 := win.t0[off]
	if t0 == slotSpilled {
		for _, p := range c.touchSpill[w] {
			c.roFalse[p] = true
		}
		delete(c.touchSpill, w)
	} else {
		c.roFalse[t0] = true
		if t1 := win.t1[off]; t1 != slotEmpty {
			c.roFalse[t1] = true
		}
	}
	win.t0[off], win.t1[off] = slotEmpty, slotEmpty
}

// touchSpillEnt records an unwritten-word touch for an out-of-window word.
func (c *fusedCollector) touchSpillEnt(w uint64, pc int32) {
	ent := c.ensureSpill(w)
	for _, p := range ent.touch {
		if p == pc {
			return
		}
	}
	ent.touch = append(ent.touch, pc)
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

// shadowAt resolves the shadow window and offset of addr's word through
// the shadow micro-TLB, or (nil, 0) when addr lives in no flat region.
func (c *fusedCollector) shadowAt(addr uint64) (*shadowWin, uint64) {
	w := addr >> 3
	if off := w - c.sh1.base; off < uint64(len(c.sh1.st)) {
		return c.sh1, off
	}
	if off := w - c.sh2.base; off < uint64(len(c.sh2.st)) {
		return c.sh2, off
	}
	sw, off := c.winSlow(addr)
	if sw != nil {
		c.sh2 = sw
	}
	return sw, off
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
	var v uint64
	if off := w - c.arenaBase; off < uint64(len(c.arena)) {
		v = c.arena[off]
	} else if off := w - c.w2base; off < uint64(len(c.w2)) {
		v = c.w2[off]
	} else {
		v = c.mem.Load(addr)
		c.w2base, c.w2, _ = c.mem.WindowFor(addr)
	}

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
	var stPC int32 = slotEmpty
	var vp int32 = NoProducer
	if sw, soff := c.shadowAt(addr); sw != nil {
		stPC = sw.st[soff]
		if stPC >= 0 {
			vp = sw.vp[soff]
		} else if !c.roFalse[pc] {
			c.touchWin(sw, soff, w, int32(pc))
		}
	} else if ent := c.spill[w]; ent != nil && ent.st >= 0 {
		stPC, vp = ent.st, ent.vp
	} else if !c.roFalse[pc] {
		c.touchSpillEnt(w, int32(pc))
	}
	li.ValueProducer.Add(vp)
	if stPC >= 0 {
		c.roFalse[pc] = true
		cc := &c.consCache[pc]
		if cc[0] != stPC && cc[1] != stPC {
			set := prof.StoresConsumedBy[stPC]
			if set == nil {
				set = make(map[int]bool)
				prof.StoresConsumedBy[stPC] = set
			}
			set[pc] = true
			cc[1], cc[0] = cc[0], stPC
		}
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
	if off := w - c.arenaBase; off < uint64(len(c.arena)) {
		c.arena[off] = val
	} else if off := w - c.w2base; off < uint64(len(c.w2)) {
		c.w2[off] = val
	} else {
		c.mem.Store(addr, val)
		c.arenaBase, c.arena = c.mem.ArenaView()
		c.w2base, c.w2, _ = c.mem.WindowFor(addr)
	}
	c.prof.StoreCount[pc]++

	if sw, soff := c.shadowAt(addr); sw != nil {
		if sw.t0[soff] != slotEmpty {
			c.invalidate(sw, soff, w)
		}
		sw.vp[soff], sw.st[soff] = vp, int32(pc)
	} else {
		ent := c.ensureSpill(w)
		for _, p := range ent.touch {
			c.roFalse[p] = true
		}
		ent.touch = ent.touch[:0]
		ent.vp, ent.st = vp, int32(pc)
	}
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
	memory := initial.Clone()
	c := &fusedCollector{
		prof: prof, code: p.Code,
		hier: hier, l1: hier.L1, mem: memory,
		sh1: &shadowWin{}, sh2: &shadowWin{},
		spill:      make(map[uint64]*spillEnt),
		touchSpill: make(map[uint64][]int32),
		roFalse:    make([]bool, n),
		consCache:  make([][2]int32, n),
	}
	for i := range c.consCache {
		c.consCache[i] = [2]int32{slotEmpty, slotEmpty}
	}
	c.arenaBase, c.arena = memory.ArenaView()
	if len(c.arena) > 0 {
		c.sh1 = c.winFor(c.arenaBase, len(c.arena))
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
	// Hand the shadow store-PC windows to the Profile as its written-set:
	// word w was stored iff st[w-base] >= 0.
	prof.written.wins = make([]writtenWin, 0, len(c.wins))
	for _, win := range c.wins {
		prof.written.wins = append(prof.written.wins, writtenWin{base: win.base, st: win.st})
	}
	prof.written.spill = make(map[uint64]bool)
	for w, ent := range c.spill {
		if ent.st >= 0 {
			prof.written.spill[w] = true
		}
	}
	return prof, h.eng.ReplayedInstrs, nil
}
