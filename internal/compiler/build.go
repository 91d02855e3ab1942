package compiler

import (
	"github.com/amnesiac-sim/amnesiac/internal/energy"
	"github.com/amnesiac-sim/amnesiac/internal/isa"
	"github.com/amnesiac-sim/amnesiac/internal/profile"
	"github.com/amnesiac-sim/amnesiac/internal/rslice"
)

type rejectReason uint8

const (
	rejectNone rejectReason = iota
	rejectNoProducer
	rejectUnstable
)

// builder grows slices level by level under the energy budget (§3.1.1).
type builder struct {
	model *energy.Model
	prog  *isa.Program
	prof  *profile.Profile
	opts  Options
}

// costInputs returns the read-only-load expectation hookup for Cost.
func (b *builder) costInputs() rslice.CostInputs {
	return rslice.CostInputs{ReadOnlyLoadEnergy: func(pc int) float64 {
		if li := b.prof.Loads[pc]; li != nil {
			return li.ExpectedHierarchyEnergy(b.model)
		}
		return b.model.LoadEnergy(energy.L1)
	}}
}

func (b *builder) sliceCost(s *rslice.Slice) float64 {
	return s.Cost(b.model, b.costInputs())
}

// resolveRoot finds the root producer for the value read by the load at
// loadPC, chasing through memory copies: if the stored value was itself
// loaded, follow that load's own value producer, up to a small chain bound.
// ok=false if no stable producer exists. roLoad=true if the chain ends at a
// load of read-only data (the slice then re-loads the original input).
func (b *builder) resolveRoot(loadPC int) (pc int, roLoad bool, reason rejectReason) {
	seen := make(map[int]bool)
	cur := loadPC
	for hops := 0; hops < 8; hops++ {
		li := b.prof.Loads[cur]
		if li == nil {
			return 0, false, rejectNoProducer
		}
		prod, share, ok := li.ValueProducer.Dominant()
		if !ok || prod == profile.NoProducer {
			return 0, false, rejectNoProducer
		}
		if share < b.opts.Stability {
			return 0, false, rejectUnstable
		}
		in := b.prog.Code[prod]
		if in.Op == isa.LD {
			if b.prof.LoadAllReadOnly[prod] {
				return prod, true, rejectNone
			}
			if seen[prod] {
				return 0, false, rejectNoProducer // cyclic copy chain
			}
			seen[prod] = true
			cur = prod
			continue
		}
		if !isa.Recomputable(in.Op) {
			return 0, false, rejectNoProducer
		}
		return prod, false, rejectNone
	}
	return 0, false, rejectNoProducer
}

// operandProducer resolves the producer for operand opIdx of the
// instruction at pc: the static PC whose result the operand consumed,
// chased through memory copies like resolveRoot. expand=false means the
// operand should remain a leaf input.
//
// Expansion only follows *forward* dataflow (prod < pc in program order):
// a producer at a later PC reached the consumer around a loop back-edge, so
// the dependence is loop-carried — induction variables, accumulators —
// and re-executing the producer would chase an unbounded chain of earlier
// iterations. Such operands stay leaf inputs (live register or Hist
// checkpoint), which is also how the consumer loop supplies the current
// index to a recomputed slice. Empirical validation remains the safety net
// for the rare mispredictions of this heuristic.
func (b *builder) operandProducer(pc, opIdx int) (prodPC int, roLoad bool, expand bool) {
	prod, share, ok := b.prof.DominantProducer(pc, opIdx)
	if !ok || prod == profile.NoProducer || share < b.opts.Stability {
		return 0, false, false
	}
	if prod >= pc {
		return 0, false, false
	}
	in := b.prog.Code[prod]
	if in.Op == isa.LD {
		if b.prof.LoadAllReadOnly[prod] {
			return prod, true, true
		}
		// Interior non-read-only load: chase its value producer (§3.1.1:
		// "the compiler replaces each such load with the respective
		// recomputing slice, recursively").
		p, ro, reason := b.resolveRoot(prod)
		if reason != rejectNone {
			return 0, false, false
		}
		return p, ro, true
	}
	if !isa.Recomputable(in.Op) {
		return 0, false, false
	}
	return prod, false, true
}

// build constructs the candidate slice for the load at loadPC, growing the
// tree breadth-first while the anticipated Erc stays within the Eld budget
// and the structural caps hold. Leaf inputs default to Hist until
// validation proves liveness.
func (b *builder) build(loadPC int) (*rslice.Slice, rejectReason) {
	li := b.prof.Loads[loadPC]
	rootPC, rootRO, reason := b.resolveRoot(loadPC)
	if reason != rejectNone {
		return nil, reason
	}

	// Growth gets 30% headroom over the Eld budget: stopping a dependence
	// chain one node short strands a dead temporary as a leaf input and
	// invalidates the whole slice, so it is better to finish the chain and
	// let the exact post-validation cost check reject true overshoots.
	const growthSlack = 1.3
	budget := growthSlack * li.ExpectedLoadEnergy(b.model)
	s := &rslice.Slice{
		LoadPC: loadPC,
		Load:   b.prog.Code[loadPC],
		Root:   &rslice.Node{PC: rootPC, In: b.prog.Code[rootPC], Depth: 0, ReadOnlyLoad: rootRO},
	}
	s.Root.Children = make(map[int]*rslice.Node)

	// Running anticipated cost: RTN + per-node EPI + per-read-only-load
	// expected hierarchy energy. Pending leaf inputs are costed
	// optimistically at zero (live-register reads are free) during growth;
	// the post-validation selection re-prices Hist-bound inputs exactly.
	cost := b.model.InstrEnergy(isa.CatAmnesic)
	nodeCost := func(n *rslice.Node) float64 {
		if n.In.Op == isa.LD {
			e := b.model.InstrEnergy(isa.CatLoad)
			if pli := b.prof.Loads[n.PC]; pli != nil {
				e += pli.ExpectedHierarchyEnergy(b.model)
			} else {
				e += b.model.LoadEnergy(energy.L1)
			}
			return e
		}
		return b.model.InstrEnergy(isa.CategoryOf(n.In.Op))
	}
	cost += nodeCost(s.Root)
	if cost >= budget {
		// Even the single-producer slice exceeds the budget: the paper's
		// compiler would not swap; still return it as a candidate in
		// oracle mode (runtime may see a Mem-serviced load where it wins).
		s.Finalize()
		return s, rejectNone
	}

	nodes := 1
	// ancestors guards against static cycles (a -> b -> a producer chains
	// spanning loop iterations): a child may not repeat any PC on its
	// root-path.
	ancestors := map[*rslice.Node]map[int]bool{s.Root: {s.Root.PC: true}}
	frontier := []*rslice.Node{s.Root}
	for len(frontier) > 0 && nodes < b.opts.MaxSliceLen {
		next := frontier[:0:0]
		for _, n := range frontier {
			if n.Depth+1 >= b.opts.MaxHeight {
				continue
			}
			for _, opIdx := range operandIdxs(n.In) {
				if nodes >= b.opts.MaxSliceLen {
					break
				}
				reg := rslice.OperandReg(n.In, opIdx)
				if reg == isa.R0 {
					continue
				}
				prodPC, ro, expand := b.operandProducer(n.PC, opIdx)
				if !expand || ancestors[n][prodPC] {
					continue
				}
				child := &rslice.Node{
					PC: prodPC, In: b.prog.Code[prodPC], Depth: n.Depth + 1,
					Children: make(map[int]*rslice.Node), ReadOnlyLoad: ro,
				}
				delta := nodeCost(child)
				if cost+delta >= budget {
					continue
				}
				cost += delta
				n.Children[opIdx] = child
				anc := make(map[int]bool, len(ancestors[n])+1)
				for pc := range ancestors[n] {
					anc[pc] = true
				}
				anc[child.PC] = true
				ancestors[child] = anc
				nodes++
				next = append(next, child)
			}
		}
		frontier = next
	}

	s.Finalize()
	return s, rejectNone
}

// operandIdxs mirrors rslice's operand ordering for tree growth.
func operandIdxs(in isa.Instr) []int {
	switch in.Op {
	case isa.LI:
		return nil
	case isa.MOV, isa.ADDI, isa.FNEG, isa.FSQRT, isa.FABS, isa.I2F, isa.F2I:
		return []int{0}
	case isa.LD:
		return []int{0}
	case isa.FMA:
		return []int{0, 1, 2}
	default:
		if isa.Recomputable(in.Op) {
			return []int{0, 1}
		}
		return nil
	}
}
