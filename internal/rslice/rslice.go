// Package rslice models recomputation slices (RSlices, paper §2.1): the
// upside-down dependence trees whose re-execution regenerates a loaded
// value. The immediate producer P(v) of the value sits at the root; each
// node is a producer instruction to be re-executed; leaves are instructions
// whose own inputs are not regenerated but supplied from live registers or
// the Hist checkpoint buffer (§2.2).
//
// The amnesic compiler (internal/compiler) grows these trees under the load
// energy budget; this package holds the tree representation, traversal
// order, and the Erc cost model of §3.1.1.
package rslice

import (
	"fmt"
	"strings"

	"github.com/amnesiac-sim/amnesiac/internal/energy"
	"github.com/amnesiac-sim/amnesiac/internal/isa"
)

// InputKind classifies how a leaf input operand is supplied at
// recomputation time.
type InputKind uint8

const (
	// InputLive reads the architectural register file: the register still
	// holds the needed value when RCMP fires.
	InputLive InputKind = iota
	// InputHist reads the Hist table: the value was overwritten, so a REC
	// instruction checkpointed it (a "non-recomputable input", §2.2).
	InputHist
)

func (k InputKind) String() string {
	if k == InputLive {
		return "live"
	}
	return "hist"
}

// Input is one unexpanded operand of a slice node: a value the slice does
// not recompute but must obtain from the register file or Hist.
type Input struct {
	Node    *Node     // the node consuming this input
	Operand int       // 0 = Src1, 1 = Src2, 2 = Dst-as-source (FMA)
	Reg     isa.Reg   // architectural register the operand names
	Kind    InputKind // live or Hist (decided by validation)
}

// Node is one producer instruction in the slice tree.
type Node struct {
	PC    int       // static PC in the original program
	In    isa.Instr // the producer instruction (original registers)
	Depth int       // root = 0
	// Children maps operand index -> producing subtree. Operands without a
	// child entry are Inputs.
	Children map[int]*Node
	// ReadOnlyLoad marks an LD node over addresses the program never
	// writes: re-executed as a real (energy-charged) load of a program
	// input rather than expanded further.
	ReadOnlyLoad bool
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Slice is a complete recomputation slice for one static load.
type Slice struct {
	ID     int
	LoadPC int       // the swapped load's static PC
	Load   isa.Instr // the original load instruction
	Root   *Node

	// Nodes lists the tree in emission order: post-order (children before
	// parents), so data flows leaves -> root as in paper Fig. 1.
	Nodes []*Node
	// Inputs lists all unexpanded operands across nodes.
	Inputs []*Input
}

// Finalize computes Nodes (post-order) and Inputs from the tree. Input
// kinds default to InputHist until validation proves liveness.
func (s *Slice) Finalize() {
	s.Nodes = s.Nodes[:0]
	s.Inputs = s.Inputs[:0]
	var walk func(n *Node)
	walk = func(n *Node) {
		for _, opIdx := range operandOrder(n) {
			if c, ok := n.Children[opIdx]; ok {
				walk(c)
			}
		}
		s.Nodes = append(s.Nodes, n)
		for _, opIdx := range operandOrder(n) {
			if _, ok := n.Children[opIdx]; ok {
				continue
			}
			r := operandReg(n.In, opIdx)
			if r == isa.R0 {
				continue // the zero register is a constant source
			}
			s.Inputs = append(s.Inputs, &Input{Node: n, Operand: opIdx, Reg: r, Kind: InputHist})
		}
	}
	if s.Root != nil {
		walk(s.Root)
	}
}

// Clone returns a deep copy of s: a fresh tree with the same shape, and
// Nodes and Inputs re-pointed at the copied nodes. Input kinds carry over.
func (s *Slice) Clone() *Slice {
	c := &Slice{ID: s.ID, LoadPC: s.LoadPC, Load: s.Load}
	copyOf := make(map[*Node]*Node, len(s.Nodes))
	var walk func(n *Node) *Node
	walk = func(n *Node) *Node {
		cn := &Node{PC: n.PC, In: n.In, Depth: n.Depth, ReadOnlyLoad: n.ReadOnlyLoad}
		if n.Children != nil {
			cn.Children = make(map[int]*Node, len(n.Children))
			for op, ch := range n.Children {
				cn.Children[op] = walk(ch)
			}
		}
		copyOf[n] = cn
		return cn
	}
	if s.Root != nil {
		c.Root = walk(s.Root)
	}
	if s.Nodes != nil {
		c.Nodes = make([]*Node, len(s.Nodes))
		for i, n := range s.Nodes {
			c.Nodes[i] = copyOf[n]
		}
	}
	if s.Inputs != nil {
		c.Inputs = make([]*Input, len(s.Inputs))
		for i, in := range s.Inputs {
			ci := *in
			ci.Node = copyOf[in.Node]
			c.Inputs[i] = &ci
		}
	}
	return c
}

// operandOrder returns the source-operand indices instruction in consumes.
func operandOrder(n *Node) []int {
	in := n.In
	switch in.Op {
	case isa.LI:
		return nil
	case isa.MOV, isa.ADDI, isa.FNEG, isa.FSQRT, isa.FABS, isa.I2F, isa.F2I:
		return []int{0}
	case isa.LD:
		return []int{0} // address operand
	case isa.FMA:
		return []int{0, 1, 2}
	default:
		if isa.Recomputable(in.Op) {
			return []int{0, 1}
		}
		return nil
	}
}

// OperandReg maps an operand index of in to its architectural register.
func OperandReg(in isa.Instr, opIdx int) isa.Reg { return operandReg(in, opIdx) }

func operandReg(in isa.Instr, opIdx int) isa.Reg {
	switch opIdx {
	case 0:
		return in.Src1
	case 1:
		return in.Src2
	case 2:
		return in.Dst
	}
	panic(fmt.Sprintf("rslice: bad operand index %d", opIdx))
}

// Len returns the recomputing-instruction count (RSlice length, §5.4).
func (s *Slice) Len() int { return len(s.Nodes) }

// Height returns the tree height (root-only slice = 1).
func (s *Slice) Height() int {
	var h func(n *Node) int
	h = func(n *Node) int {
		best := 0
		for _, c := range n.Children {
			if d := h(c); d > best {
				best = d
			}
		}
		return best + 1
	}
	if s.Root == nil {
		return 0
	}
	return h(s.Root)
}

// Leaves returns the leaf nodes.
func (s *Slice) Leaves() []*Node {
	var out []*Node
	for _, n := range s.Nodes {
		if n.IsLeaf() {
			out = append(out, n)
		}
	}
	return out
}

// HistInputs returns inputs that must be checkpointed via REC.
func (s *Slice) HistInputs() []*Input {
	var out []*Input
	for _, in := range s.Inputs {
		if in.Kind == InputHist {
			out = append(out, in)
		}
	}
	return out
}

// HasNonRecomputable reports whether the slice depends on non-recomputable
// inputs (§2.2): Hist-buffered register values or read-only memory loads.
// This is the "w/ nc" classification of paper Fig. 7.
func (s *Slice) HasNonRecomputable() bool {
	if len(s.HistInputs()) > 0 {
		return true
	}
	for _, n := range s.Nodes {
		if n.ReadOnlyLoad {
			return true
		}
	}
	return false
}

// CostInputs supplies the per-level expectation for read-only-load nodes.
type CostInputs struct {
	// ReadOnlyLoadEnergy returns the expected hierarchy energy of
	// re-executing the read-only load at the given static PC (typically the
	// profiled Σ PrLi×EPILi for that load).
	ReadOnlyLoadEnergy func(pc int) float64
}

// Cost returns the anticipated recomputation energy Erc (§3.1.1): the sum
// of category EPIs over all recomputing instructions, plus Hist reads for
// checkpointed inputs, plus expected hierarchy energy for read-only leaf
// loads, plus the RTN (jump-like) overhead. The RCMP itself is excluded:
// it is fetched and resolved whether or not recomputation fires, so it
// cancels out of the Erc-vs-Eld comparison.
func (s *Slice) Cost(m *energy.Model, ci CostInputs) float64 {
	cost := m.InstrEnergy(isa.CatAmnesic) // RTN
	for _, n := range s.Nodes {
		if n.In.Op == isa.LD {
			cost += m.InstrEnergy(isa.CatLoad)
			if ci.ReadOnlyLoadEnergy != nil {
				cost += ci.ReadOnlyLoadEnergy(n.PC)
			} else {
				cost += m.LoadEnergy(energy.L1)
			}
			continue
		}
		cost += m.InstrEnergy(isa.CategoryOf(n.In.Op))
	}
	for _, in := range s.Inputs {
		if in.Kind == InputHist {
			cost += m.HistReadEnergy
		}
	}
	return cost
}

// String renders the tree for debugging.
func (s *Slice) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "RSlice(id=%d load@%d len=%d height=%d)\n", s.ID, s.LoadPC, s.Len(), s.Height())
	var walk func(n *Node, indent int)
	walk = func(n *Node, indent int) {
		fmt.Fprintf(&sb, "%s@%d %s", strings.Repeat("  ", indent), n.PC, n.In)
		if n.ReadOnlyLoad {
			sb.WriteString("  [read-only load]")
		}
		sb.WriteByte('\n')
		for _, opIdx := range operandOrder(n) {
			if c, ok := n.Children[opIdx]; ok {
				walk(c, indent+1)
			}
		}
	}
	if s.Root != nil {
		walk(s.Root, 1)
	}
	for _, in := range s.Inputs {
		fmt.Fprintf(&sb, "  input: node@%d op%d %s (%s)\n", in.Node.PC, in.Operand, in.Reg, in.Kind)
	}
	return sb.String()
}
