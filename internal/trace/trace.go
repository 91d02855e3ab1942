// Package trace implements the trace-reuse execution engine: hot back-edge
// detection, superblock recording over decoded programs, superinstruction
// fusion of frequent opcode pairs, and the replayable trace representation
// the shared dispatch core (internal/exec) executes as dense loop bodies.
//
// Lifecycle (record → fuse → replay → invalidate):
//
//   - record: every taken backward branch bumps a per-PC counter; when a
//     loop head crosses Config.Threshold the interpreter records the PCs it
//     retires until the back-edge returns to the head — one complete loop
//     iteration, the superblock;
//   - fuse: Build compiles the recorded path into replay ops, collapsing
//     ALU+branch (compare-and-loop-close), load+ALU, and ALU+store pairs
//     into single superinstructions with a precomputed operand-forwarding
//     mask (Op.Fwd) that routes the first op's result straight into the
//     second op's operands;
//   - replay: a later arrival at the head executes the trace body with one
//     guard per recorded conditional branch; a guard that resolves against
//     the recorded direction side-exits at the other successor. A side
//     exit whose target owns a trace links straight into it without
//     returning to the interpreter (LuaJIT-style side traces); one without
//     a trace bumps the target's hotness counter, so hot exit paths earn
//     their own lateral traces and chained replay covers loop nests, not
//     just single loops;
//   - invalidate: heads whose recording crosses an untraceable instruction
//     (HALT, RTN) or exceeds Config.MaxOps are blacklisted with a tombstone
//     and never re-recorded. An outer loop whose body is too large simply
//     blacklists at MaxOps; recording closes when any control transfer
//     returns to the head, so multi-back-edge and nested paths that fit are
//     recorded as-is.
//
// The amnesic opcodes REC and RCMP are recordable when the executor
// provides an AuxSigger: they become CRec/CRcmp trace entries that replay
// by calling back into the live amnesic handlers (exec.Aux), so slice
// traversal, policy decisions, Hist/SFile/IBuff state, and energy
// accounting all follow the interpreter's exact code path. Each entry
// captures the site's recipe signature (AuxSig) at record time; when the
// machine's recipe state changes — a REC overflow permanently failing a
// slice — Engine.InvalidateStale drops every trace whose captured
// signatures went stale so the head re-records against the new recipe set.
// An RCMP whose handler errors side-exits the replay at the faulting pc
// with the interpreter's error, preserving bit-identical store streams and
// energy accounts (the outcome guard).
//
// A run's watched PCs (exec.Watch) are recordable too: Build puts a CWatch
// observer op before each, and replay calls the watch's observer there with
// the live registers and memory, so a watched loop replays instead of
// interpreting.
//
// Replay preserves bit-identical architectural and energy behaviour: it
// counts the same events as interpretation (energy is priced from the
// counts once, when the run exits), every memory op still probes the cache
// hierarchy, and fused pairs still write the first op's destination
// register architecturally. Counts are integers, so replay may pre-sum
// them: Build folds the dynamic-instruction increments of every run of ops
// that provably retires atomically — no guard, memory access, or aux call
// between them, guards allowed only as the final op since a branch retires
// whichever way it resolves — into Op.NBat on the run's first op
// (dead-charge batching), collapsing the per-instruction counter chain.
package trace

import "github.com/amnesiac-sim/amnesiac/internal/isa"

// Config controls hot-trace recording. The zero value (Enable false) turns
// the engine off; DefaultConfig is the production tuning.
type Config struct {
	// Enable turns trace recording and replay on.
	Enable bool
	// Threshold is the number of taken back-edge arrivals at a loop head
	// before recording starts; 0 means the default. 1 records on the first
	// arrival (the difftest stress setting).
	Threshold uint32
	// MaxOps bounds a recorded superblock, in original instructions; a
	// recording that grows past it blacklists the head. 0 means the default.
	MaxOps int
}

// DefaultConfig returns the production tuning: record after 32 back-edge
// arrivals, superblocks up to 512 instructions.
func DefaultConfig() Config { return Config{Enable: true, Threshold: 32, MaxOps: 512} }

func (c Config) withDefaults() Config {
	if c.Threshold == 0 {
		c.Threshold = 32
	}
	if c.MaxOps <= 0 {
		c.MaxOps = 512
	}
	return c
}

// Code is the replay dispatch code of one trace op. Single-op codes mirror
// the interpreter's inline ALU set; the three C*-pair codes are the fused
// superinstructions.
type Code uint8

const (
	// Specialized single ALU ops (the interpreter's inline set).
	CAdd Code = iota
	CAddi
	CLi
	CMov
	CSub
	CMul
	CAnd
	COr
	CXor
	CShl
	CShr
	CSlt
	CSeq
	// CAluGen is the long-tail compute op evaluated via isa.EvalComputeOp.
	CAluGen
	// CLoad / CStore / CNop are the remaining straight-line kinds.
	CLoad
	CStore
	CNop
	// CBrCharge charges a branch whose outcome is statically known on the
	// recorded path (JMP, or a conditional branch whose target is the
	// fall-through): no guard is needed.
	CBrCharge
	// CGuard charges and re-evaluates a recorded conditional branch; if it
	// resolves against the recorded direction, replay side-exits to ExitPC.
	CGuard
	// Fused superinstructions (two original instructions each).
	CAluGuard // ALU + conditional branch consuming its result
	CLoadAlu  // load + ALU consuming the loaded value
	CAluStore // ALU + store consuming its result (value and/or address base)
	// Amnesic aux ops: replay calls back into the live exec.Aux handler so
	// the amnesic machine's checkpoint/recompute logic runs unchanged.
	CRec
	CRcmp
	// CWatch is an observer op: replay calls the run's watch observer
	// (exec.Watch) with the live state the next op is about to read. It
	// retires no instruction.
	CWatch
)

// nCodes is the number of replay codes (for tests).
const nCodes = int(CWatch) + 1

// Width returns the number of original instructions an op of code c
// retires: two for the fused pairs, none for an observer op, one otherwise.
func (c Code) Width() int {
	switch c {
	case CAluGuard, CLoadAlu, CAluStore:
		return 2
	case CWatch:
		return 0
	}
	return 1
}

// Op is one replay operation. Register fields are pre-masked (&31). For
// fused codes the A-fields (AOp/Dst/Src1/Src2/Imm/Cat/PC) describe the
// first original instruction and the B-fields (BOp/Dst2/BSrc1/BSrc2/Imm2/
// Cat2/PC2) the second; Fwd says which of the second op's operands take the
// first op's result instead of the register file (the intermediate register
// is still written architecturally, so no liveness analysis is needed).
type Op struct {
	Code Code
	// AOp is the compute opcode for CAluGen and for the ALU half of every
	// fused code; BOp is the branch opcode of CGuard/CAluGuard.
	AOp isa.Op
	BOp isa.Op
	// First-instruction operands.
	Dst, Src1, Src2 uint8
	// Second-instruction operands (fused codes) / guard operands (CGuard).
	Dst2, BSrc1, BSrc2 uint8
	// Fwd forwards the first op's result into the second op's operands:
	// bit 0 = first operand (guard Src1 / ALU Src1 / store address base),
	// bit 1 = second operand (guard Src2 / ALU Src2 / store value).
	Fwd uint8
	// Taken is the recorded direction of CGuard/CAluGuard.
	Taken bool
	// Elim marks an eliminated-store NOP (amnesic statistics).
	Elim bool
	// Cat / Cat2 are the energy categories of the two sub-instructions.
	Cat, Cat2 isa.Category
	// PC / PC2 are the original program counters (fault reporting).
	PC, PC2 int32
	// ExitPC is the side-exit continuation when a guard fails: the recorded
	// branch's other successor.
	ExitPC int32
	// Imm / Imm2 are the two sub-instructions' immediates.
	Imm, Imm2 int64
	// AuxSig is the recipe signature CRec/CRcmp captured at record time
	// (AuxSigger.AuxSig); Engine.InvalidateStale compares it against the
	// site's live signature to drop stale traces.
	AuxSig uint64
	// NBat is the dead-charge batch weight: the total number of original
	// instructions retired by the maximal guard-/memory-/aux-free run of
	// ops starting here (a trailing guard is included — a branch retires
	// whichever way it resolves). Replay adds NBat to the instruction
	// counter at the run's first op and 0 at the interior ops, collapsing
	// the per-instruction counter chain; integer addition is exact, so the
	// totals at every observation point (side exit, aux call, return) are
	// unchanged. Ops that can fault or call out (memory, aux) keep NBat 0
	// and count positionally in their own replay case. Category and
	// per-level counts stay per op.
	NBat uint32
}

// Trace is one compiled superblock: a complete loop iteration anchored at
// Head. A Trace with nil Ops is a blacklist tombstone.
type Trace struct {
	Head int32
	Ops  []Op
	// NInstr is the number of original instructions retired by one complete
	// iteration (fused ops count as two); the replay loop uses it for a
	// conservative pre-iteration budget check.
	NInstr uint64
}

// Engine holds per-run trace state for one program execution. Each run owns
// its engine; it is not safe for concurrent use.
type Engine struct {
	Cfg Config
	// Counts is the per-PC hotness counter driving head detection: taken
	// back-edge arrivals, plus unchained trace side-exits whose target has
	// no trace yet (lateral-head candidates).
	Counts []uint32
	// Traces maps head PC to its built trace; a tombstone (non-nil with
	// nil Ops) marks a blacklisted head.
	Traces []*Trace
	// Built / Blacklisted / Replays are engine statistics: traces compiled,
	// heads tombstoned, and trace entries (not iterations) replayed,
	// whether from the interpreter or linked from another trace's side
	// exit.
	Built, Blacklisted, Replays uint64
	// ReplayedInstrs counts original instructions retired under replay —
	// the engine's dynamic coverage, next to Account.Instrs.
	ReplayedInstrs uint64
	// Invalidations counts traces dropped by InvalidateStale because a
	// captured aux signature no longer matched the live recipe state.
	Invalidations uint64

	// auxIndex maps a trace head to the CRec/CRcmp sites its body captured,
	// so InvalidateStale re-signs only traces that contain aux ops.
	auxIndex map[int32][]auxSite
}

// auxSite is one recorded aux op: its pc and the signature captured there.
type auxSite struct {
	pc  int32
	sig uint64
}

// NewEngine builds an engine for a program of progLen instructions,
// normalizing zero Config fields to their defaults.
func NewEngine(cfg Config, progLen int) *Engine {
	cfg = cfg.withDefaults()
	return &Engine{
		Cfg:    cfg,
		Counts: make([]uint32, progLen),
		Traces: make([]*Trace, progLen),
	}
}

// Blacklist permanently invalidates head as a trace anchor.
func (e *Engine) Blacklist(head int) {
	e.Traces[head] = &Trace{Head: int32(head)}
	e.Blacklisted++
}

// Invalidate drops head's trace or tombstone so it can be re-counted and
// re-recorded from scratch.
func (e *Engine) Invalidate(head int) {
	e.Traces[head] = nil
	e.Counts[head] = 0
	delete(e.auxIndex, int32(head))
}

// RegisterAuxSites records the CRec/CRcmp sites of a freshly built trace so
// InvalidateStale can later re-sign them. Traces without aux ops are not
// indexed; the executor calls this on every build.
func (e *Engine) RegisterAuxSites(tr *Trace) {
	var sites []auxSite
	for i := range tr.Ops {
		op := &tr.Ops[i]
		if op.Code == CRec || op.Code == CRcmp {
			sites = append(sites, auxSite{pc: op.PC, sig: op.AuxSig})
		}
	}
	if sites == nil {
		return
	}
	if e.auxIndex == nil {
		e.auxIndex = make(map[int32][]auxSite)
	}
	e.auxIndex[tr.Head] = sites
}

// InvalidateStale drops every trace holding an aux site whose captured
// signature no longer matches sig's live answer — the recipe-change
// invalidation hook. The amnesic machine calls it when a REC overflow
// permanently fails a slice; replay itself never consults the captured
// signatures (it always calls the live handlers, which read live state),
// so a trace replaying concurrently with its invalidation stays correct
// and simply re-records on the next head arrival.
func (e *Engine) InvalidateStale(sig AuxSigger) {
	for head, sites := range e.auxIndex {
		for _, s := range sites {
			if sig.AuxSig(int(s.pc)) != s.sig {
				e.Invalidate(int(head))
				e.Invalidations++
				break
			}
		}
	}
}

// Recordable reports whether an instruction kind may appear on a recorded
// path. HALT, the amnesic opcodes, and undecodable instructions abort and
// blacklist the recording head (their handlers leave the dispatch loop or
// call out to stateful handlers replay cannot reproduce). RecordableAux
// widens the set for executors that provide an AuxSigger.
func Recordable(k isa.Kind) bool { return k < isa.KindHalt }

// RecordableAux reports whether a kind may appear on a recorded path when
// the executor's Aux handler implements AuxSigger: the plain recordable
// set plus REC and RCMP, which replay through the live handler. RTN stays
// unrecordable — top-level RTN is a terminal error, and slice bodies are
// traversed inside the RCMP handler, never fetched by the dispatch loop.
func RecordableAux(k isa.Kind) bool {
	return k < isa.KindHalt || k == isa.KindRec || k == isa.KindRcmp
}

// AuxSigger is implemented by Aux handlers whose REC/RCMP sites may be
// recorded into traces. AuxSig returns a signature of everything at pc
// that shapes the handler's control decisions — for a REC the resolved
// checkpoint spec, for an RCMP the slice identity plus its failed bit. A
// changed signature marks every trace that captured the old one stale
// (see Engine.InvalidateStale).
type AuxSigger interface {
	AuxSig(pc int) uint64
}

// aluCode maps an inline-evaluated compute opcode to its specialized replay
// code; everything else is CAluGen.
func aluCode(op isa.Op) Code {
	switch op {
	case isa.ADD:
		return CAdd
	case isa.ADDI:
		return CAddi
	case isa.LI:
		return CLi
	case isa.MOV:
		return CMov
	case isa.SUB:
		return CSub
	case isa.MUL:
		return CMul
	case isa.AND:
		return CAnd
	case isa.OR:
		return COr
	case isa.XOR:
		return CXor
	case isa.SHL:
		return CShl
	case isa.SHR:
		return CShr
	case isa.SLT:
		return CSlt
	case isa.SEQ:
		return CSeq
	}
	return CAluGen
}

// isALU reports whether c is a single compute op (fusion candidate).
func isALU(c Code) bool { return c <= CAluGen }

// Build compiles one recorded superblock into a replayable trace. path is
// the sequence of retired PCs for one complete loop iteration: it starts at
// the head and ends with the loop-closing branch whose execution returned
// to the head. elim (may be nil) marks eliminated-store NOPs for amnesic
// statistics. watch (may be nil) marks the run's watched PCs: each gets a
// CWatch op just before its own, so replay observes it as interpretation
// does. The watch set is fixed for a run, so observer ops carry no
// signature and never go stale. sig captures aux signatures for REC/RCMP
// sites; it must be non-nil when the path contains them (the recorder only
// admits aux kinds when the executor provides an AuxSigger). Build panics
// on kinds the recorder must have filtered (see Recordable/RecordableAux);
// that is an internal invariant, not an input error.
func Build(d *isa.Decoded, path []int32, elim, watch []bool, sig AuxSigger) *Trace {
	head := path[0]
	raw := make([]Op, 0, len(path))
	for j, pc := range path {
		next := head
		if j+1 < len(path) {
			next = path[j+1]
		}
		if watch != nil && watch[pc] {
			// An observer op sits between its instruction and whatever
			// precedes it, so fusion never pairs across it.
			raw = append(raw, Op{Code: CWatch, PC: pc})
		}
		op := Op{PC: pc, Imm: d.Imm[pc], Cat: d.Cat[pc]}
		switch k := d.Kind[pc]; k {
		case isa.KindCompute:
			op.Code = aluCode(d.Op[pc])
			op.AOp = d.Op[pc]
			op.Dst = uint8(d.Dst[pc]) & 31
			op.Src1 = uint8(d.Src1[pc]) & 31
			op.Src2 = uint8(d.Src2[pc]) & 31
		case isa.KindLoad:
			op.Code = CLoad
			op.Dst = uint8(d.Dst[pc]) & 31
			op.Src1 = uint8(d.Src1[pc]) & 31
		case isa.KindStore:
			op.Code = CStore
			op.Src1 = uint8(d.Src1[pc]) & 31 // address base
			op.Src2 = uint8(d.Src2[pc]) & 31 // value
		case isa.KindNop:
			op.Code = CNop
			op.Elim = elim != nil && elim[pc]
		case isa.KindJmp:
			op.Code = CBrCharge
		case isa.KindCondBr:
			target := d.Target[pc]
			if target == pc+1 {
				// Both successors coincide: charge only, no guard.
				op.Code = CBrCharge
				break
			}
			op.Code = CGuard
			op.BOp = d.Op[pc]
			op.BSrc1 = uint8(d.Src1[pc]) & 31
			op.BSrc2 = uint8(d.Src2[pc]) & 31
			op.Taken = next == target
			if op.Taken {
				op.ExitPC = pc + 1
			} else {
				op.ExitPC = target
			}
		case isa.KindRec:
			op.Code = CRec
			op.AuxSig = sig.AuxSig(int(pc))
		case isa.KindRcmp:
			op.Code = CRcmp
			op.AuxSig = sig.AuxSig(int(pc))
		default:
			panic("trace: unrecordable kind on recorded path")
		}
		raw = append(raw, op)
	}
	ops := fuse(raw)
	batchDeadCharges(ops)
	return &Trace{Head: head, Ops: ops, NInstr: uint64(len(path))}
}

// batchWeight is an op's dead-charge batch contribution: the number of
// original instructions it retires, or 0 for ops that may fault, side-exit
// before fully retiring, or call out to a handler that counts for itself —
// those count positionally in their own replay case — and for observer
// ops, which retire nothing and end the run before them.
func batchWeight(c Code) uint32 {
	switch c {
	case CLoad, CStore, CLoadAlu, CAluStore, CRec, CRcmp, CWatch:
		return 0
	case CAluGuard:
		return 2
	default:
		return 1
	}
}

// batchDeadCharges pre-sums the per-op instruction-counter increments of
// every maximal run of batchable ops into the run's first op (Op.NBat);
// interior ops stay 0. A guard terminates its run inclusively: the branch
// instruction retires whether or not it side-exits, so its count is safe
// to front-load, while everything after a potential exit starts a new run.
// Only the instruction counter is batched; replay counts categories per op.
func batchDeadCharges(ops []Op) {
	for i := 0; i < len(ops); {
		if batchWeight(ops[i].Code) == 0 {
			i++
			continue
		}
		head, total := i, uint32(0)
		for i < len(ops) {
			c := ops[i].Code
			w := batchWeight(c)
			if w == 0 {
				break
			}
			total += w
			i++
			if c == CGuard || c == CAluGuard {
				break
			}
		}
		ops[head].NBat = total
	}
}

// fuse collapses adjacent op pairs into superinstructions. A pair fuses
// when the first op produces a register (Dst != 0; R0 results read back as
// zero, so forwarding them would be wrong) and the second consumes it:
//
//	ALU  + guard → CAluGuard (compare-and-branch, the loop-close idiom)
//	load + ALU   → CLoadAlu
//	ALU  + store → CAluStore (result used as value and/or address base)
//
// The Fwd mask records which operand slots take the forwarded result; all
// other operands still read the register file, and the first op's Dst is
// still written, so fusion is invisible to architectural state.
func fuse(raw []Op) []Op {
	out := make([]Op, 0, len(raw))
	for i := 0; i < len(raw); i++ {
		cur := raw[i]
		if i+1 < len(raw) {
			nxt := raw[i+1]
			if f, ok := fusePair(cur, nxt); ok {
				out = append(out, f)
				i++
				continue
			}
		}
		out = append(out, cur)
	}
	return out
}

// fusePair attempts to fuse cur followed by nxt.
func fusePair(cur, nxt Op) (Op, bool) {
	switch {
	case isALU(cur.Code) && cur.Dst != 0 && nxt.Code == CGuard &&
		(nxt.BSrc1 == cur.Dst || nxt.BSrc2 == cur.Dst):
		f := cur
		f.Code = CAluGuard
		f.BOp, f.BSrc1, f.BSrc2 = nxt.BOp, nxt.BSrc1, nxt.BSrc2
		f.Taken, f.ExitPC, f.PC2 = nxt.Taken, nxt.ExitPC, nxt.PC
		if nxt.BSrc1 == cur.Dst {
			f.Fwd |= 1
		}
		if nxt.BSrc2 == cur.Dst {
			f.Fwd |= 2
		}
		return f, true
	case cur.Code == CLoad && cur.Dst != 0 && isALU(nxt.Code) &&
		(nxt.Src1 == cur.Dst || nxt.Src2 == cur.Dst):
		f := cur
		f.Code = CLoadAlu
		f.AOp, f.Dst2, f.BSrc1, f.BSrc2 = nxt.AOp, nxt.Dst, nxt.Src1, nxt.Src2
		f.Imm2, f.Cat2, f.PC2 = nxt.Imm, nxt.Cat, nxt.PC
		if nxt.Src1 == cur.Dst {
			f.Fwd |= 1
		}
		if nxt.Src2 == cur.Dst {
			f.Fwd |= 2
		}
		return f, true
	case isALU(cur.Code) && cur.Dst != 0 && nxt.Code == CStore &&
		(nxt.Src1 == cur.Dst || nxt.Src2 == cur.Dst):
		f := cur
		f.Code = CAluStore
		f.BSrc1, f.BSrc2 = nxt.Src1, nxt.Src2 // base, value
		f.Imm2, f.PC2 = nxt.Imm, nxt.PC
		if nxt.Src1 == cur.Dst {
			f.Fwd |= 1
		}
		if nxt.Src2 == cur.Dst {
			f.Fwd |= 2
		}
		return f, true
	}
	return Op{}, false
}
