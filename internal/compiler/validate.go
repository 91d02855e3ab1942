package compiler

import (
	"fmt"

	"github.com/amnesiac-sim/amnesiac/internal/isa"
	"github.com/amnesiac-sim/amnesiac/internal/mem"
	"github.com/amnesiac-sim/amnesiac/internal/rslice"
)

// validator checks every candidate slice empirically against one classic
// run. This is the profile-guided step standing in for the paper's
// Pin-based binary generator: a slice enters the binary only if
// recomputation is observed to regenerate v on every dynamic instance, and
// the same run classifies each leaf input as live-register or
// Hist-checkpointed (§2.2).
//
// The run establishes, per dynamic load instance, the *ground-truth* leaf
// input vector of the producing computation: when a store feeding this load
// executes, the current checkpoints of all leaf inputs — just used by the
// producer chain — are snapshotted against the stored address. At each load
// the snapshot tells us exactly which binding can supply each input:
//
//   - live:  the architectural register still holds the needed value when
//     the RCMP fires (the consumer loop supplies the current index, or the
//     value never left its register);
//   - hist:  the latest REC checkpoint holds it (§2.2's overwritten
//     register values — loop-invariant parameters whose registers were
//     recycled, scalar temporaries).
//
// Bindings are decided independently per input; a slice is valid only if
// recomputation from the ground-truth inputs reproduced the loaded value on
// every instance and every input has at least one working binding.
//
// The validator observes the run through an exec.Watch over a static PC
// set — REC sites (slice nodes with leaf inputs), candidate loads, and
// their profiled feeder stores — and sees the machine state before each
// watched instruction executes. All per-event state is dense: PC-indexed
// site tables, index-resolved checkpoints and slice evaluation, and a paged
// word-granular snapshot index, so an event allocates nothing once the
// pages its addresses fall in exist.
type validator struct {
	code  []isa.Instr
	cands []*candState
	// at holds, per program PC, what a watched instance there does.
	at []watchSite
	// pcs lists the watched PCs in ascending order.
	pcs []int
	// ck simulates Hist: per REC site, the operand values (Src1, Src2, old
	// Dst) of the latest dynamic instance of that static PC; ckSet marks
	// sites executed at least once. Every node at one PC — of any slice —
	// checkpoints the same values at the same instants, so one entry
	// serves them all.
	ck    [][3]uint64
	ckSet []bool
}

// watchSite is the validation work at one static PC.
type watchSite struct {
	// rec is 1 + the checkpoint index of this PC (0 = not a REC site).
	rec int32
	// load is 1 + the candidate whose load sits at this PC (0 = none).
	load int32
	// stores are the candidates this PC is a profiled feeder store of.
	stores []int32
}

// candState tracks one candidate slice through the validation run.
type candState struct {
	s     *rslice.Slice
	valid bool
	seen  bool
	// fail records why validation rejected the slice (diagnostics).
	fail string
	// inputs locate each leaf input's checkpoint and register.
	inputs []inputRef
	// nodes is the slice in evaluation (post-)order over buf: buf[0] is the
	// constant zero, buf[1:1+len(inputs)] the ground-truth inputs, and
	// node i's value lands in buf[1+len(inputs)+i].
	nodes []evalNode
	buf   []uint64
	// structural marks a slice whose recomputation cannot succeed: an
	// operand that is neither a child nor an input, or an interior load.
	structural bool
	// snaps maps each word a feeder store wrote to the ground-truth input
	// vector at that store.
	snaps snapIndex
	// liveOK / histOK per input.
	liveOK, histOK []bool
}

// inputRef locates one leaf input: the checkpoint of its node's PC, the
// operand within it, and the register the operand names.
type inputRef struct {
	ck  int32
	op  uint8
	reg isa.Reg
}

// evalNode is one slice node with its operands resolved to buf indices
// (Src1, Src2, Dst-as-source; 0 reads the constant zero).
type evalNode struct {
	op  isa.Op
	ld  bool // read-only load of buf[src[0]] + imm
	imm int64
	src [3]int32
}

// newCandState prepares s for validation; ckOf maps a node PC to its
// checkpoint index.
func newCandState(s *rslice.Slice, ckOf map[int]int32) *candState {
	cs := &candState{
		s: s, valid: true,
		inputs: make([]inputRef, len(s.Inputs)),
		nodes:  make([]evalNode, len(s.Nodes)),
		buf:    make([]uint64, 1+len(s.Inputs)+len(s.Nodes)),
		liveOK: make([]bool, len(s.Inputs)),
		histOK: make([]bool, len(s.Inputs)),
	}
	cs.snaps.init(1 + len(s.Inputs))
	for i := range cs.liveOK {
		cs.liveOK[i] = true
		cs.histOK[i] = true
	}
	nodeBase := int32(1 + len(s.Inputs))
	nodeIdx := make(map[*rslice.Node]int32, len(s.Nodes))
	for i, n := range s.Nodes {
		nodeIdx[n] = nodeBase + int32(i)
	}
	// inputOf[node][operand] is the input's buf index (0 = not an input).
	inputOf := make(map[*rslice.Node][3]int32, len(s.Inputs))
	for i, in := range s.Inputs {
		e := inputOf[in.Node]
		e[in.Operand] = 1 + int32(i)
		inputOf[in.Node] = e
		cs.inputs[i] = inputRef{ck: ckOf[in.Node.PC], op: uint8(in.Operand), reg: in.Reg}
	}
	for i, n := range s.Nodes {
		en := evalNode{op: n.In.Op, imm: n.In.Imm}
		if n.In.Op == isa.LD {
			en.ld = true
			if !n.ReadOnlyLoad {
				cs.structural = true // interior loads cannot appear as nodes
			}
		}
		for _, opIdx := range operandIdxs(n.In) {
			switch c, ok := n.Children[opIdx]; {
			case ok:
				en.src[opIdx] = nodeIdx[c]
			case rslice.OperandReg(n.In, opIdx) == isa.R0:
			case inputOf[n][opIdx] == 0:
				cs.structural = true
			default:
				en.src[opIdx] = inputOf[n][opIdx]
			}
		}
		cs.nodes[i] = en
	}
	return cs
}

// evalSlice recomputes the slice's root value with leaf inputs supplied from
// the ground-truth vector. ok=false on structural failure (a body load
// misaligned or an interior load node).
func (cs *candState) evalSlice(m *mem.Memory, snap []uint64) (uint64, bool) {
	if cs.structural {
		return 0, false
	}
	buf := cs.buf
	copy(buf[1:], snap)
	out := buf[1+len(snap):]
	for i := range cs.nodes {
		n := &cs.nodes[i]
		a := buf[n.src[0]]
		if n.ld {
			addr := a + uint64(n.imm)
			if addr&7 != 0 {
				return 0, false
			}
			out[i] = m.Load(addr)
			continue
		}
		out[i] = isa.EvalComputeOp(n.op, n.imm, a, buf[n.src[1]], buf[n.src[2]])
	}
	return out[len(out)-1], true
}

// newValidator indexes the candidates' watch sites. feeders[pc] lists, for
// the store at pc, the load PCs that consumed its values (the profile's
// store→loads relation).
func newValidator(prog *isa.Program, candidates []*rslice.Slice, feeders []map[int]bool) *validator {
	v := &validator{code: prog.Code, at: make([]watchSite, len(prog.Code))}
	ckOf := make(map[int]int32)
	for _, s := range candidates {
		for _, in := range s.Inputs {
			if _, ok := ckOf[in.Node.PC]; !ok {
				ckOf[in.Node.PC] = int32(len(ckOf))
				v.at[in.Node.PC].rec = int32(len(ckOf))
			}
		}
	}
	v.ck = make([][3]uint64, len(ckOf))
	v.ckSet = make([]bool, len(ckOf))
	candAt := make(map[int]int32, len(candidates))
	for i, s := range candidates {
		v.cands = append(v.cands, newCandState(s, ckOf))
		candAt[s.LoadPC] = int32(i)
		v.at[s.LoadPC].load = int32(i) + 1
	}
	for st, loads := range feeders {
		for ld := range loads {
			if c, ok := candAt[ld]; ok {
				v.at[st].stores = append(v.at[st].stores, c)
			}
		}
	}
	for pc := range v.at {
		if site := &v.at[pc]; site.rec != 0 || site.load != 0 || len(site.stores) > 0 {
			v.pcs = append(v.pcs, pc)
		}
	}
	return v
}

// observe is the exec.Watch callback: regs and m are the machine state
// before the instruction at pc executes. Accesses the core is about to
// fault on (misaligned) are skipped, as the run ends there.
func (v *validator) observe(pc int, regs *[isa.NumRegs]uint64, m *mem.Memory) {
	site := &v.at[pc]
	in := &v.code[pc]
	if site.rec != 0 {
		v.ck[site.rec-1] = [3]uint64{regs[in.Src1], regs[in.Src2], regs[in.Dst]}
		v.ckSet[site.rec-1] = true
	}
	if len(site.stores) > 0 {
		addr := regs[in.Src1] + uint64(in.Imm)
		if addr&7 != 0 {
			return
		}
		for _, c := range site.stores {
			if cs := v.cands[c]; cs.valid {
				rec := cs.snaps.record(addr >> 3)
				if v.snapshot(cs, rec[1:]) {
					rec[0] = snapSet
				} else {
					rec[0] = snapNil
				}
			}
		}
	}
	if site.load != 0 {
		v.load(v.cands[site.load-1], in, regs, m)
	}
}

// snapshot writes cs's ground-truth input vector for a freshly stored value
// into dst. It returns false if any leaf input has not been observed yet.
func (v *validator) snapshot(cs *candState, dst []uint64) bool {
	for i, in := range cs.inputs {
		if !v.ckSet[in.ck] {
			return false
		}
		dst[i] = v.ck[in.ck][in.op]
	}
	return true
}

// load checks one dynamic instance of a candidate's load.
func (v *validator) load(cs *candState, in *isa.Instr, regs *[isa.NumRegs]uint64, m *mem.Memory) {
	if !cs.valid {
		return
	}
	addr := regs[in.Src1] + uint64(in.Imm)
	if addr&7 != 0 {
		return
	}
	cs.seen = true
	loaded := m.Load(addr)
	rec := cs.snaps.lookup(addr >> 3)
	if rec == nil || rec[0] == snapNil {
		cs.valid = false
		cs.fail = fmt.Sprintf("no ground-truth snapshot for addr %#x (ok=%v)", addr, rec != nil)
		return
	}
	snap := rec[1:]
	res, ok := cs.evalSlice(m, snap)
	if !ok || res != loaded {
		cs.valid = false
		cs.fail = fmt.Sprintf("recomputed %#x != loaded %#x (structural ok=%v)", res, loaded, ok)
		return
	}
	// Registers as the RCMP would observe them: the state before the load.
	for i, ir := range cs.inputs {
		want := snap[i]
		if cs.liveOK[i] && regs[ir.reg] != want {
			cs.liveOK[i] = false
		}
		if cs.histOK[i] && (!v.ckSet[ir.ck] || v.ck[ir.ck][ir.op] != want) {
			cs.histOK[i] = false
		}
		if !cs.liveOK[i] && !cs.histOK[i] {
			in := cs.s.Inputs[i]
			cs.valid = false
			cs.fail = fmt.Sprintf("input %d (node@%d op%d %s) neither live nor Hist-bindable", i, in.Node.PC, in.Operand, in.Reg)
			return
		}
	}
}

// verdicts closes the run: it returns the valid slices in candidate order
// with their input kinds set, recording each rejection's reason in diag.
func (v *validator) verdicts(diag map[int]string) []*rslice.Slice {
	var out []*rslice.Slice
	for _, cs := range v.cands {
		s := cs.s
		if !cs.valid || !cs.seen {
			reason := cs.fail
			if reason == "" {
				reason = "load never executed during validation"
			}
			diag[s.LoadPC] = reason
			continue
		}
		for i, in := range s.Inputs {
			if cs.liveOK[i] {
				in.Kind = rslice.InputLive
			} else {
				in.Kind = rslice.InputHist
			}
		}
		out = append(out, s)
	}
	return out
}

// snapPageShift sizes snapIndex pages: 128 words each.
const snapPageShift = 7

// snapIndex maps stored words to fixed-width snapshot records of stride
// words each: a state word (snapAbsent, snapNil, snapSet), then the input
// vector. Records live in pages covering 1<<snapPageShift consecutive
// words, allocated only where feeder stores land, so a word's record is
// found by its page and offset alone; a one-entry page cache makes runs of
// nearby accesses a shift, compare and index.
type snapIndex struct {
	stride int
	pages  map[uint64][]uint64
	lastPN uint64
	last   []uint64
}

// Record states; a fresh page reads snapAbsent everywhere.
const (
	snapAbsent = iota // no feeder store wrote the word
	snapNil           // stored before every leaf input was observed
	snapSet           // the input vector holds the ground truth
)

func (x *snapIndex) init(stride int) {
	x.stride = stride
	x.pages = make(map[uint64][]uint64)
	x.lastPN = ^uint64(0)
}

// turn points the page cache at page pn, allocating the page when create
// is set; it reports whether the page exists.
func (x *snapIndex) turn(pn uint64, create bool) bool {
	p := x.pages[pn]
	if p == nil {
		if !create {
			return false
		}
		p = make([]uint64, x.stride<<snapPageShift)
		x.pages[pn] = p
	}
	x.lastPN, x.last = pn, p
	return true
}

// record returns word w's record, allocating its page on first use.
func (x *snapIndex) record(w uint64) []uint64 {
	if w>>snapPageShift != x.lastPN {
		x.turn(w>>snapPageShift, true)
	}
	off := int(w&(1<<snapPageShift-1)) * x.stride
	return x.last[off : off+x.stride]
}

// lookup returns word w's record, or nil if no feeder store wrote w.
func (x *snapIndex) lookup(w uint64) []uint64 {
	if w>>snapPageShift != x.lastPN && !x.turn(w>>snapPageShift, false) {
		return nil
	}
	off := int(w&(1<<snapPageShift-1)) * x.stride
	if rec := x.last[off : off+x.stride]; rec[0] != snapAbsent {
		return rec
	}
	return nil
}
