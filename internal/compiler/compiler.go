// Package compiler implements the amnesic compiler pass of paper §3.1: it
// consumes a classic program plus its dynamic profile, builds a
// recomputation slice (RSlice) for every load where one exists, grows each
// slice level by level under the probabilistic load-energy budget, validates
// the slices empirically against a classic run (the stand-in for the
// paper's profile-guided binary generator), and emits an annotated binary
// in which selected loads become RCMP instructions, slice bodies are
// appended (each terminated by RTN), and REC instructions checkpoint
// non-recomputable leaf inputs into Hist.
//
// The pass splits at validation. A Plan holds the mode-independent half:
// the candidate slices and their validator, which observes one classic run
// through an exec.Watch — the harness's own classic baseline, so prepare
// runs the program twice (profile, baseline) rather than once per mode.
// The watched run replays its hot loops like any traced classic run; the
// watch only adds an observer call at each watched PC. Emit then produces
// the binary of each mode from the same verdicts, and one binary for both
// when they select the same slices.
package compiler

import (
	"fmt"
	"sort"

	"github.com/amnesiac-sim/amnesiac/internal/cpu"
	"github.com/amnesiac-sim/amnesiac/internal/energy"
	"github.com/amnesiac-sim/amnesiac/internal/isa"
	"github.com/amnesiac-sim/amnesiac/internal/mem"
	"github.com/amnesiac-sim/amnesiac/internal/profile"
	"github.com/amnesiac-sim/amnesiac/internal/rslice"
)

// Mode selects which slices the compiler bakes into the binary.
type Mode uint8

const (
	// ModeProbabilistic swaps a load only when the probabilistic energy
	// model predicts recomputation wins: Erc < Eld (§3.1.1). This produces
	// the slice set S used by the Compiler, FLC, LLC and C-Oracle policies.
	ModeProbabilistic Mode = iota
	// ModeOracleAll keeps every *valid* slice regardless of predicted
	// profit, leaving the decision entirely to the runtime. This produces
	// the slice set the Oracle policy picks from (§5.1).
	ModeOracleAll
)

func (m Mode) String() string {
	if m == ModeOracleAll {
		return "oracle-all"
	}
	return "probabilistic"
}

// Options tunes the pass. The zero value is not useful; start from
// DefaultOptions.
type Options struct {
	Mode Mode
	// MaxSliceLen caps recomputing instructions per slice (§3.4 notes the
	// compiler caps growth; §5.4 finds >50-instruction slices negligible).
	MaxSliceLen int
	// MaxHeight caps the tree height h (§3.4).
	MaxHeight int
	// Stability is the minimum share a dominant producer must hold over
	// the dynamic instances of an operand for the compiler to rely on it.
	Stability float64
	// EliminateDeadStores drops stores whose every consuming load was
	// swapped (§1). Only sound under the always-recompute Compiler policy;
	// the amnesic machine enforces that.
	EliminateDeadStores bool
}

// DefaultOptions returns the configuration used throughout the evaluation.
func DefaultOptions() Options {
	return Options{
		Mode:        ModeProbabilistic,
		MaxSliceLen: 80,
		MaxHeight:   48,
		Stability:   0.9999,
	}
}

// SrcKind says where a slice-body operand's value comes from at runtime.
type SrcKind uint8

const (
	// SrcZero is the hardwired zero register.
	SrcZero SrcKind = iota
	// SrcSFile reads the SFile entry written by an earlier body instruction.
	SrcSFile
	// SrcLive reads the architectural register file.
	SrcLive
	// SrcHist reads a slot of a Hist entry.
	SrcHist
	// SrcNone marks an unused operand slot.
	SrcNone
)

func (k SrcKind) String() string {
	switch k {
	case SrcZero:
		return "zero"
	case SrcSFile:
		return "sfile"
	case SrcLive:
		return "live"
	case SrcHist:
		return "hist"
	}
	return "none"
}

// OperandSource resolves one operand of a slice-body instruction.
type OperandSource struct {
	Kind    SrcKind
	BodyIdx int     // SrcSFile: producing body instruction index
	Reg     isa.Reg // SrcLive: architectural register
	HistID  int     // SrcHist: Hist entry
	Slot    int     // SrcHist: slot within the entry (operand index)
}

// BodyInstr is one recomputing instruction plus its operand routing — the
// compile-time equivalent of what the hardware Renamer resolves (§3.2).
type BodyInstr struct {
	In   isa.Instr
	Node *rslice.Node
	// Srcs routes operand 0..2 (Src1, Src2, Dst-as-input).
	Srcs [3]OperandSource
	// ReadOnlyLoad marks body loads of read-only program inputs; these
	// perform a real, energy-charged memory access at runtime.
	ReadOnlyLoad bool
}

// RecSpec describes what one REC instruction checkpoints: up to three
// register values into the slots of one Hist entry.
type RecSpec struct {
	HistID int
	// Regs[slot] is the register captured into that slot; Mask selects the
	// populated slots.
	Regs [3]isa.Reg
	Mask uint8
}

// SliceInfo is one compiled slice with everything the runtime needs.
type SliceInfo struct {
	ID      int
	Slice   *rslice.Slice
	LoadPC  int // original program PC of the swapped load
	RcmpPC  int // annotated program PC of the RCMP
	EntryPC int // annotated program PC of the first body instruction
	Body    []BodyInstr
	// HistEntries is the number of Hist entries (leaf checkpoints) the
	// slice consumes; HistBase is its first global Hist ID.
	HistBase    int
	HistEntries int
	// ExpectedEld / ExpectedErc are the compile-time probabilistic energy
	// estimates used for the swap decision.
	ExpectedEld float64
	ExpectedErc float64
	// Selected reports whether the probabilistic model predicted a win
	// (always true in ModeProbabilistic output; in ModeOracleAll the
	// runtime may consult it).
	Selected bool
}

// Stats summarizes a compilation for the paper's figures.
type Stats struct {
	LoadsSeen          int // static loads with profile data
	SlicesBuilt        int // slices surviving validation
	SlicesSelected     int // slices baked into the binary
	RejectedNoProducer int
	RejectedUnstable   int
	RejectedInvalid    int // failed empirical validation
	RejectedCost       int // Erc >= Eld (probabilistic)
	DeadStores         int // stores eliminated
	HistEntriesTotal   int
	// RejectedDetail maps load PC -> why validation rejected its slice.
	RejectedDetail map[int]string
}

// Annotated is the output binary plus all side tables.
type Annotated struct {
	Original *isa.Program
	Prog     *isa.Program
	Slices   []*SliceInfo
	// RecSpecs maps annotated REC PC -> what it checkpoints.
	RecSpecs map[int]RecSpec
	// PCMap maps original PC -> annotated PC of the same instruction.
	PCMap []int
	// EliminatedStores holds original store PCs replaced by NOPs.
	EliminatedStores map[int]bool
	// ElimNOPPCs holds the annotated PCs of those NOPs.
	ElimNOPPCs map[int]bool
	// DeadStoreElim records whether dead-store elimination ran (restricts
	// the runtime to the always-recompute policy).
	DeadStoreElim bool
	Stats         Stats
}

// SliceByID returns the slice with the given ID, or nil.
func (a *Annotated) SliceByID(id int32) *SliceInfo {
	if id < 0 || int(id) >= len(a.Slices) {
		return nil
	}
	return a.Slices[id]
}

// SwappedLoadPCs returns the original PCs of loads swapped for RCMP.
func (a *Annotated) SwappedLoadPCs() []int {
	pcs := make([]int, 0, len(a.Slices))
	for _, s := range a.Slices {
		pcs = append(pcs, s.LoadPC)
	}
	sort.Ints(pcs)
	return pcs
}

// Compile runs the full pass for one mode: plan (build the candidate
// slices), validate them against a classic run of prog over a clone of
// initial, select, and emit. Callers that need both modes, or that run the
// classic baseline anyway, should use NewPlan and validate once.
func Compile(model *energy.Model, prog *isa.Program, prof *profile.Profile, initial *mem.Memory, opts Options) (*Annotated, error) {
	p, err := NewPlan(model, prog, prof, opts)
	if err != nil {
		return nil, err
	}
	if w := p.Watch(); w != nil {
		core := cpu.New(model, mem.NewDefaultHierarchy(), initial.Clone())
		core.Watch = w
		if err := core.Run(prog); err != nil {
			return nil, fmt.Errorf("compiler: validation run: %w", err)
		}
	}
	return p.Emit(opts.Mode)
}
