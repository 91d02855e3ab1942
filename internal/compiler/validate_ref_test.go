package compiler

// The reference validator: an observer on the flat reference stepper
// (internal/ref) that the production validator (validate.go) is
// differentially tested against.

import (
	"fmt"

	"github.com/amnesiac-sim/amnesiac/internal/cpu"
	"github.com/amnesiac-sim/amnesiac/internal/isa"
	"github.com/amnesiac-sim/amnesiac/internal/mem"
	"github.com/amnesiac-sim/amnesiac/internal/ref"
	"github.com/amnesiac-sim/amnesiac/internal/rslice"
)

// refCheckpoint is the simulated Hist entry for one slice node: its input
// operand values as of the node's most recent dynamic execution (what a REC
// placed before that instruction captures).
type refCheckpoint struct {
	vals     [3]uint64
	recorded bool
}

// refCandState tracks one candidate slice through the validation replay.
//
// The replay establishes, per dynamic load instance, the *ground-truth* leaf
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
type refCandState struct {
	s     *rslice.Slice
	valid bool
	seen  bool
	// fail records why validation rejected the slice (diagnostics).
	fail string
	// ck simulates Hist: per node with inputs, the latest checkpoint.
	ck map[*rslice.Node]*refCheckpoint
	// snaps maps stored address -> ground-truth input vector (nil marks an
	// address whose producer ran before all leaf inputs were observed).
	snaps map[uint64][]uint64
	// storePCs are the static stores feeding this load (from the profile).
	storePCs map[int]bool
	// liveOK / histOK per input.
	liveOK, histOK []bool
	vals           map[*rslice.Node]uint64 // evaluation scratch
	// inputIdx[node][operand] is 1+index into s.Inputs (0 = not an input).
	inputIdx map[*rslice.Node][3]int
}

func newRefCandState(s *rslice.Slice) *refCandState {
	cs := &refCandState{
		s: s, valid: true,
		ck:       make(map[*rslice.Node]*refCheckpoint),
		snaps:    make(map[uint64][]uint64),
		storePCs: make(map[int]bool),
		liveOK:   make([]bool, len(s.Inputs)),
		histOK:   make([]bool, len(s.Inputs)),
		vals:     make(map[*rslice.Node]uint64, len(s.Nodes)),
		inputIdx: make(map[*rslice.Node][3]int, len(s.Inputs)),
	}
	for i := range cs.liveOK {
		cs.liveOK[i] = true
		cs.histOK[i] = true
	}
	for i, in := range s.Inputs {
		e := cs.inputIdx[in.Node]
		e[in.Operand] = i + 1
		cs.inputIdx[in.Node] = e
	}
	return cs
}

// snapshot captures the ground-truth input vector for a freshly stored
// value. It returns nil if any leaf input has not been observed yet.
func (cs *refCandState) snapshot() []uint64 {
	snap := make([]uint64, len(cs.s.Inputs))
	for i, in := range cs.s.Inputs {
		ck := cs.ck[in.Node]
		if ck == nil || !ck.recorded {
			return nil
		}
		snap[i] = ck.vals[in.Operand]
	}
	return snap
}

// evalSlice recomputes the slice's root value with leaf inputs supplied from
// the ground-truth vector. ok=false on structural failure (a body load
// misaligned or an interior load node).
func (cs *refCandState) evalSlice(m *mem.Memory, snap []uint64) (uint64, bool) {
	for k := range cs.vals {
		delete(cs.vals, k)
	}
	for _, n := range cs.s.Nodes {
		var ops [3]uint64
		for _, opIdx := range operandIdxs(n.In) {
			if c, ok := n.Children[opIdx]; ok {
				ops[opIdx] = cs.vals[c]
				continue
			}
			if rslice.OperandReg(n.In, opIdx) == isa.R0 {
				continue
			}
			i := cs.inputIdx[n][opIdx]
			if i == 0 {
				return 0, false
			}
			ops[opIdx] = snap[i-1]
		}
		switch {
		case n.In.Op == isa.LD:
			if !n.ReadOnlyLoad {
				return 0, false // interior loads cannot appear as nodes
			}
			addr := ops[0] + uint64(n.In.Imm)
			if addr&7 != 0 {
				return 0, false
			}
			cs.vals[n] = m.Load(addr)
		default:
			cs.vals[n] = isa.EvalCompute(n.In, ops[0], ops[1], ops[2])
		}
	}
	return cs.vals[cs.s.Root], true
}

// refValidate is the map-keyed validator the dense one replaced, kept as
// the reference for the differential tests: it replays the program on the
// reference stepper, observing every retired instruction and taking a
// map-assigned snapshot on every feeder store. feeders maps load PC ->
// static store PCs feeding it; if diag is non-nil, rejection reasons are
// recorded per load PC.
func refValidate(prog *isa.Program, initial *mem.Memory, candidates []*rslice.Slice, feeders map[int]map[int]bool, diag map[int]string) ([]*rslice.Slice, error) {
	if len(candidates) == 0 {
		return nil, nil
	}

	type recSite struct {
		cs   *refCandState
		node *rslice.Node
	}
	cands := make(map[int]*refCandState, len(candidates)) // by load PC
	recSites := make(map[int][]recSite)
	snapAt := make(map[int][]*refCandState) // store PC -> candidates to snapshot
	for _, s := range candidates {
		cs := newRefCandState(s)
		if _, dup := cands[s.LoadPC]; dup {
			return nil, fmt.Errorf("compiler: duplicate candidate for load @%d", s.LoadPC)
		}
		cands[s.LoadPC] = cs
		withInputs := make(map[*rslice.Node]bool)
		for _, in := range s.Inputs {
			withInputs[in.Node] = true
		}
		for n := range withInputs {
			recSites[n.PC] = append(recSites[n.PC], recSite{cs: cs, node: n})
		}
		for st := range feeders[s.LoadPC] {
			cs.storePCs[st] = true
			snapAt[st] = append(snapAt[st], cs)
		}
	}

	m := initial.Clone()
	_, err := ref.Run(prog, m, cpu.DefaultMaxInstrs, func(st *ref.Step) {
		for _, site := range recSites[st.PC] {
			ck := site.cs.ck[site.node]
			if ck == nil {
				ck = &refCheckpoint{}
				site.cs.ck[site.node] = ck
			}
			ck.vals = st.Srcs
			ck.recorded = true
		}

		switch st.In.Op {
		case isa.ST:
			for _, cs := range snapAt[st.PC] {
				if cs.valid {
					cs.snaps[st.Addr] = cs.snapshot()
				}
			}
		case isa.LD:
			cs := cands[st.PC]
			if cs == nil || !cs.valid {
				return
			}
			cs.seen = true
			snap, ok := cs.snaps[st.Addr]
			if !ok || snap == nil {
				cs.valid = false
				cs.fail = fmt.Sprintf("no ground-truth snapshot for addr %#x (ok=%v)", st.Addr, ok)
				return
			}
			res, ok := cs.evalSlice(m, snap)
			if !ok || res != st.Value {
				cs.valid = false
				cs.fail = fmt.Sprintf("recomputed %#x != loaded %#x (structural ok=%v)", res, st.Value, ok)
				return
			}
			// Registers as the RCMP would observe them: the observer runs
			// after the load's destination write; undo it.
			regAt := func(r isa.Reg) uint64 {
				if r == st.In.Dst {
					return st.Srcs[2]
				}
				return st.Regs[r]
			}
			for i, in := range cs.s.Inputs {
				want := snap[i]
				if cs.liveOK[i] && regAt(in.Reg) != want {
					cs.liveOK[i] = false
				}
				if cs.histOK[i] {
					ck := cs.ck[in.Node]
					if ck == nil || !ck.recorded || ck.vals[in.Operand] != want {
						cs.histOK[i] = false
					}
				}
				if !cs.liveOK[i] && !cs.histOK[i] {
					cs.valid = false
					cs.fail = fmt.Sprintf("input %d (node@%d op%d %s) neither live nor Hist-bindable", i, in.Node.PC, in.Operand, in.Reg)
					return
				}
			}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("compiler: validation run: %w", err)
	}

	var out []*rslice.Slice
	for _, s := range candidates {
		cs := cands[s.LoadPC]
		if !cs.valid || !cs.seen {
			if diag != nil {
				reason := cs.fail
				if reason == "" {
					reason = "load never executed during validation"
				}
				diag[s.LoadPC] = reason
			}
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
	return out, nil
}
