package compiler

import (
	"errors"
	"fmt"
	"sort"

	"github.com/amnesiac-sim/amnesiac/internal/energy"
	"github.com/amnesiac-sim/amnesiac/internal/isa"
	"github.com/amnesiac-sim/amnesiac/internal/profile"
	"github.com/amnesiac-sim/amnesiac/internal/rslice"
)

// emit rewrites the program: swapped loads become RCMP, REC instructions are
// inserted immediately before each checkpointed leaf producer, dead stores
// (optionally) become NOPs, and slice bodies terminated by RTN are appended
// past the program end, reachable only through RCMP.
//
// Placement note: the paper places REC *after* the leaf's original
// instruction (§3.1.2); we place it immediately *before*, so the source
// registers trivially still hold the leaf's inputs even when the leaf
// overwrites one of its own sources (dst == src). The semantics — Hist
// holds the most recent dynamic instance's inputs — are identical.
func emit(model *energy.Model, prog *isa.Program, prof *profile.Profile, selected []*rslice.Slice, opts Options, b *builder) (*Annotated, error) {
	sort.Slice(selected, func(i, j int) bool { return selected[i].LoadPC < selected[j].LoadPC })

	ann := &Annotated{
		Original:         prog,
		RecSpecs:         make(map[int]RecSpec),
		EliminatedStores: make(map[int]bool),
		ElimNOPPCs:       make(map[int]bool),
		DeadStoreElim:    opts.EliminateDeadStores,
	}

	swapped := make(map[int]*SliceInfo, len(selected))
	histNext := 0
	type pendingRec struct {
		spec    RecSpec
		sliceID int
	}
	recsAt := make(map[int][]pendingRec) // original leaf PC -> RECs to insert
	for id, s := range selected {
		s.ID = id
		eld := prof.Loads[s.LoadPC].ExpectedLoadEnergy(model)
		erc := b.sliceCost(s)
		si := &SliceInfo{
			ID: id, Slice: s, LoadPC: s.LoadPC,
			ExpectedEld: eld, ExpectedErc: erc,
			Selected: erc < eld,
		}
		// One Hist entry per node with at least one Hist-kind input.
		histOf := make(map[*rslice.Node]int)
		var nodeOrder []*rslice.Node
		for _, in := range s.HistInputs() {
			if _, ok := histOf[in.Node]; !ok {
				histOf[in.Node] = histNext
				nodeOrder = append(nodeOrder, in.Node)
				histNext++
			}
		}
		si.HistEntries = len(nodeOrder)
		if len(nodeOrder) > 0 {
			si.HistBase = histOf[nodeOrder[0]]
		}
		for _, n := range nodeOrder {
			spec := RecSpec{HistID: histOf[n]}
			for _, in := range s.HistInputs() {
				if in.Node == n {
					spec.Regs[in.Operand] = in.Reg
					spec.Mask |= 1 << uint(in.Operand)
				}
			}
			recsAt[n.PC] = append(recsAt[n.PC], pendingRec{spec: spec, sliceID: id})
		}
		rec, err := buildRecipe(s, histOf)
		if err != nil {
			return nil, fmt.Errorf("compiler: slice %d (load pc %d): %w", id, s.LoadPC, err)
		}
		si.Recipe = rec
		swapped[s.LoadPC] = si
		ann.Slices = append(ann.Slices, si)
	}

	// Dead-store elimination (§1): a store is redundant once every load
	// consuming its values is swapped. Stores never observed by any load
	// are conservatively kept — they may be program output.
	if opts.EliminateDeadStores {
		sw := make(map[int]bool, len(swapped))
		for pc := range swapped {
			sw[pc] = true
		}
		for _, pc := range prof.DeadStorePCs(sw, false) {
			ann.EliminatedStores[pc] = true
		}
	}

	// Layout pass: positions of REC groups and original instructions.
	groupStart := make([]int, len(prog.Code))
	instrPos := make([]int, len(prog.Code))
	pos := 0
	for pc := range prog.Code {
		groupStart[pc] = pos
		pos += len(recsAt[pc])
		instrPos[pc] = pos
		pos++
	}

	code := make([]isa.Instr, 0, pos+totalBodyLen(selected))
	for pc, in := range prog.Code {
		for _, pr := range recsAt[pc] {
			rec := isa.Instr{
				Op: isa.REC, SliceID: int32(pr.sliceID), LeafAddr: int32(pr.spec.HistID),
				Src1: pr.spec.Regs[0], Src2: pr.spec.Regs[1], Dst: pr.spec.Regs[2],
			}
			ann.RecSpecs[len(code)] = pr.spec
			code = append(code, rec)
		}
		switch {
		case swapped[pc] != nil:
			si := swapped[pc]
			si.RcmpPC = len(code)
			code = append(code, isa.Instr{
				Op: isa.RCMP, Dst: in.Dst, Src1: in.Src1, Imm: in.Imm,
				SliceID: int32(si.ID),
			})
		case ann.EliminatedStores[pc]:
			ann.ElimNOPPCs[len(code)] = true
			code = append(code, isa.Instr{Op: isa.NOP})
		default:
			fixed := in
			if isBranchWithTarget(in.Op) {
				fixed.Imm = int64(groupStart[in.Imm])
			}
			code = append(code, fixed)
		}
	}

	// Append slice bodies; patch RCMP targets.
	for _, si := range ann.Slices {
		si.EntryPC = len(code)
		code[si.RcmpPC].Target = int32(si.EntryPC)
		for _, n := range si.Slice.Nodes {
			code = append(code, n.In)
		}
		code = append(code, isa.Instr{Op: isa.RTN, SliceID: int32(si.ID)})
	}

	ann.Prog = &isa.Program{Code: code, Name: prog.Name + "+amnesic"}
	ann.PCMap = instrPos
	return ann, nil
}

func isBranchWithTarget(op isa.Op) bool {
	switch op {
	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.JMP:
		return true
	}
	return false
}

func totalBodyLen(selected []*rslice.Slice) int {
	n := 0
	for _, s := range selected {
		n += s.Len() + 1 // + RTN
	}
	return n
}

// buildRecipe resolves operand routing for each recomputing instruction:
// the compile-time equivalent of the hardware Renamer + Hist/registerfile
// selection of §3.2/§3.5. It rejects a body that breaks a rule the walk
// relies on (see Recipe).
func buildRecipe(s *rslice.Slice, histOf map[*rslice.Node]int) (Recipe, error) {
	if len(s.Nodes) == 0 {
		return Recipe{}, errors.New("empty body")
	}
	bodyIdx := make(map[*rslice.Node]int, len(s.Nodes))
	for i, n := range s.Nodes {
		bodyIdx[n] = i
	}
	hist := make(map[*rslice.Node][3]bool)
	for _, in := range s.Inputs {
		h := hist[in.Node]
		h[in.Operand] = in.Kind == rslice.InputHist
		hist[in.Node] = h
	}

	// The live and Hist counts fix where the Hist slots and the results
	// start, so each operand is first resolved to a frame section and an
	// index within it, and placed once every section's length is known.
	const (
		secZero = iota
		secLive
		secHist
		secOp
	)
	type ref struct{ sec, i int }
	var r Recipe
	refs := make([][3]ref, len(s.Nodes))
	liveIdx := make(map[isa.Reg]int)
	for i, n := range s.Nodes {
		if n.In.Op == isa.LD {
			if !n.ReadOnlyLoad {
				return Recipe{}, fmt.Errorf("body op %d: load of writable memory", i)
			}
			r.HasLoad = true
		}
		for _, opIdx := range operandIdxs(n.In) {
			if c, ok := n.Children[opIdx]; ok {
				j, ok := bodyIdx[c]
				if !ok || j >= i {
					return Recipe{}, fmt.Errorf("body op %d: operand %d is not an earlier op's result", i, opIdx)
				}
				refs[i][opIdx] = ref{secOp, j}
				continue
			}
			reg := rslice.OperandReg(n.In, opIdx)
			switch {
			case reg == isa.R0:
				refs[i][opIdx] = ref{secZero, 0}
			case hist[n][opIdx]:
				refs[i][opIdx] = ref{secHist, len(r.Hist)}
				r.Hist = append(r.Hist, HistSlot{ID: histOf[n], Slot: opIdx, Op: i})
			default:
				k, ok := liveIdx[reg]
				if !ok {
					k = len(r.Live)
					liveIdx[reg] = k
					r.Live = append(r.Live, reg)
				}
				refs[i][opIdx] = ref{secLive, k}
			}
		}
	}
	if r.Results()+len(s.Nodes) > 1<<16 {
		return Recipe{}, fmt.Errorf("value frame of %d positions exceeds %d", r.Results()+len(s.Nodes), 1<<16)
	}
	start := [...]int{secZero: 0, secLive: 1, secHist: 1 + len(r.Live), secOp: r.Results()}
	r.Ops = make([]RecipeOp, len(s.Nodes))
	for i, n := range s.Nodes {
		op := RecipeOp{Imm: n.In.Imm, Op: n.In.Op, Cat: isa.CategoryOf(n.In.Op)}
		for k, rf := range refs[i] {
			op.Src[k] = uint16(start[rf.sec] + rf.i)
		}
		r.Ops[i] = op
	}
	return r, nil
}
