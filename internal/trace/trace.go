// Package trace implements the trace-reuse execution engine: hot back-edge
// detection, superblock recording over decoded programs, and the replayable
// trace representation the shared dispatch core (internal/exec) executes as
// dense loop bodies. Every trace op stands for one original instruction,
// apart from the CWatch observer op, which retires none.
//
// Lifecycle (detect → record → replay), one implementation for every
// interpreter that replays (exec.Run and the profiler's fused collector):
//
//   - detect: Engine.Arrive handles every arrival at a candidate head — a
//     taken back-edge, or a replay side exit that no trace links — and
//     bumps the head's counter; at Config.Threshold it opens a recording;
//   - record: the interpreter calls Engine.Step before each instruction it
//     retires while the recording is open. Step closes the path when
//     control returns to the head — one complete loop iteration, the
//     superblock — and installs the trace Build compiles from it. An
//     untraceable instruction (HALT, RTN) or a path past maxOps
//     blacklists the head with a tombstone, and it is never re-recorded.
//     An outer loop whose body is too large simply blacklists at maxOps;
//     recording closes when any control transfer returns to the head, so
//     multi-back-edge and nested paths that fit are recorded as-is;
//   - replay: a later arrival at the head executes the trace body with one
//     guard per recorded conditional branch; a guard that resolves against
//     the recorded direction side-exits at the other successor. In
//     exec.Run a side exit is an arrival: one whose target owns a trace
//     links straight into it without returning to the interpreter
//     (LuaJIT-style side traces), and one without a trace counts toward
//     the target's own lateral trace, so chained replay covers loop nests,
//     not just single loops.
//
// The amnesic opcodes REC and RCMP are recordable whenever the run has an
// aux handler (exec.Aux): they become CRec/CRcmp trace entries that replay
// by calling back into the live handlers, so slice traversal, policy
// decisions, Hist/SFile/IBuff state, and energy accounting all follow the
// interpreter's exact code path. A trace therefore holds no recipe state:
// a slice that fails mid-run (a REC overflow) changes what the next
// replayed RCMP does exactly as it changes the interpreted one. An RCMP
// whose handler errors side-exits the replay at the faulting pc with the
// interpreter's error, preserving bit-identical store streams and energy
// accounts (the outcome guard).
//
// A run's watched PCs (exec.Watch) are recordable too: Build puts a CWatch
// observer op before each, and replay calls the watch's observer there with
// the live registers and memory, so a watched loop replays instead of
// interpreting.
//
// Replay preserves bit-identical architectural and energy behaviour: it
// counts the same events as interpretation, each where its instruction
// retires (energy is priced from the counts once, when the run exits), and
// every memory op still probes the cache hierarchy.
package trace

import "github.com/amnesiac-sim/amnesiac/internal/isa"

// Config controls hot-trace recording. The zero value (Enable false) turns
// the engine off; DefaultConfig is the production tuning.
type Config struct {
	// Enable turns trace recording and replay on.
	Enable bool
	// Threshold is the number of arrivals at a head (Engine.Arrive) before
	// recording starts; 0 means the default. 1 records on the first arrival
	// (the difftest stress setting).
	Threshold uint32
}

// DefaultConfig returns the production tuning: record after 32 back-edge
// arrivals.
func DefaultConfig() Config { return Config{Enable: true, Threshold: 32} }

// maxOps bounds a recorded superblock, in original instructions; a
// recording that grows past it blacklists the head.
const maxOps = 512

// Code is the replay dispatch code of one trace op. The compute codes
// mirror the interpreter's inline ALU set.
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
	// Amnesic aux ops: replay calls back into the live exec.Aux handler so
	// the amnesic machine's checkpoint/recompute logic runs unchanged.
	CRec
	CRcmp
	// CWatch is an observer op: replay calls the run's watch observer
	// (exec.Watch) with the live state the next op is about to read. It
	// retires no instruction.
	CWatch
)

// Op is one replay operation: one original instruction, or a CWatch
// observer op. Register fields are pre-masked (&31).
type Op struct {
	Code Code
	// AOp is the opcode of a compute op (CAluGen evaluates it) and the
	// branch opcode of CGuard.
	AOp isa.Op
	// Operands; a guard compares Src1 with Src2, a store writes Src2's
	// value at Src1's address plus Imm.
	Dst, Src1, Src2 uint8
	// Taken is the recorded direction of CGuard.
	Taken bool
	// Elim marks an eliminated-store NOP (amnesic statistics).
	Elim bool
	// Cat is the instruction's energy category.
	Cat isa.Category
	// PC is the original program counter (fault reporting; the observed pc
	// of CWatch).
	PC int32
	// ExitPC is the side-exit continuation when a guard fails: the recorded
	// branch's other successor.
	ExitPC int32
	// Imm is the instruction's immediate.
	Imm int64
}

// Trace is one compiled superblock: a complete loop iteration anchored at
// Head. A Trace with nil Ops is a blacklist tombstone.
type Trace struct {
	Head int32
	Ops  []Op
	// NInstr is the number of original instructions retired by one complete
	// iteration; the replay loop uses it for a conservative pre-iteration
	// budget check.
	NInstr uint64
}

// What an interpreter does at the pc that an arrival or a recording step
// leaves it at: the one word of trace state its dispatch loop carries.
const (
	// Interpret: nothing is pending.
	Interpret = iota
	// Replay: pc heads a live trace (Engine.Head).
	Replay
	// Record: a recording is open; call Engine.Step before retiring pc.
	Record
)

// Engine holds the trace state of one program execution: the hotness
// counters, the open recording, and the built traces. Each run owns its
// engine; it is not safe for concurrent use.
type Engine struct {
	// What Arrive reads comes first, so that an arrival touches one cache
	// line of the engine: with the statistics first, the profiled
	// interpreter measured about 4% slower.
	//
	// counts is the per-PC hotness counter. traces maps a head PC to its
	// built trace; a tombstone (non-nil, nil Ops) marks a blacklisted head.
	// One more tombstone sits just past the program end, where a side exit
	// off the last instruction arrives: it finds no trace, opens no
	// recording, and leaves the interpreter to raise its out-of-range
	// error.
	counts    []uint32
	traces    []*Trace
	threshold uint32
	// recHead is the head being recorded (-1 when none is), path the
	// superblock recorded so far.
	recHead int
	path    []int32

	// Built / Blacklisted / Replays are engine statistics: traces compiled,
	// heads tombstoned, and trace entries (not iterations) replayed,
	// whether from the interpreter or linked from another trace's side
	// exit. The replaying interpreter counts Replays and ReplayedInstrs.
	Built, Blacklisted, Replays uint64
	// ReplayedInstrs counts original instructions retired under replay —
	// the engine's dynamic coverage, next to Account.Instrs.
	ReplayedInstrs uint64

	// The run's Build inputs, and whether it has an aux handler.
	d           *isa.Decoded
	elim, watch []bool
	aux         bool
}

// NewEngine builds an engine for one run of the decoded program d, with
// the default threshold when cfg's is 0. elim and watch are the
// run's Build inputs (either may be nil), and aux says whether the run has
// an aux handler (see Recordable).
func NewEngine(cfg Config, d *isa.Decoded, elim, watch []bool, aux bool) *Engine {
	if cfg.Threshold == 0 {
		cfg.Threshold = DefaultConfig().Threshold
	}
	n := d.Len()
	e := &Engine{
		threshold: cfg.Threshold, d: d, elim: elim, watch: watch, aux: aux,
		counts:  make([]uint32, n),
		traces:  make([]*Trace, n+1),
		recHead: -1,
		path:    make([]int32, 0, maxOps),
	}
	e.traces[n] = &Trace{Head: int32(n)}
	return e
}

// Arrive handles an arrival at pc: a taken back-edge, or a replay side exit
// that no trace links. It returns Replay when pc heads a live trace.
// Otherwise it counts the arrival, and at the threshold opens a recording
// at pc and returns Record. A blacklisted head is never counted again.
func (e *Engine) Arrive(pc int) int {
	if tr := e.traces[pc]; tr != nil {
		if tr.Ops == nil {
			return Interpret
		}
		return Replay
	}
	e.counts[pc]++
	if e.counts[pc] < e.threshold {
		return Interpret
	}
	e.counts[pc] = 0
	e.recHead = pc
	e.path = e.path[:0]
	return Record
}

// Step is one recording step: pc is the next instruction the interpreter
// retires while a recording is open. Control back at the head closes the
// path: Step builds the trace, installs it at the head, and returns Replay.
// An unrecordable instruction or a path past maxOps blacklists the head
// and returns Interpret. Otherwise pc joins the path and Step returns
// Record.
func (e *Engine) Step(pc int) int {
	head := e.recHead
	if pc == head && len(e.path) > 0 {
		e.traces[pc] = Build(e.d, e.path, e.elim, e.watch)
		e.Built++
		e.recHead = -1
		return Replay
	}
	if !Recordable(e.d.Kind[pc], e.aux) || len(e.path) >= maxOps {
		e.traces[head] = &Trace{Head: int32(head)}
		e.Blacklisted++
		e.recHead = -1
		return Interpret
	}
	e.path = append(e.path, int32(pc))
	return Record
}

// Recording reports whether a recording is open.
func (e *Engine) Recording() bool { return e.recHead >= 0 }

// Head returns the live trace headed at pc, once Arrive or Step has
// returned Replay there.
func (e *Engine) Head(pc int) *Trace { return e.traces[pc] }

// Path returns the path of the trace Step built last, until the next
// recording opens.
func (e *Engine) Path() []int32 { return e.path }

// Traces returns the built traces, in head order.
func (e *Engine) Traces() []*Trace {
	var out []*Trace
	for _, tr := range e.traces {
		if tr != nil && tr.Ops != nil {
			out = append(out, tr)
		}
	}
	return out
}

// Recordable reports whether an instruction of kind k may appear on a
// recorded path, in a run with an aux handler or without one. HALT, RTN and
// undecodable instructions never may: they leave the dispatch loop, and
// slice bodies are traversed inside the RCMP handler, never fetched. REC
// and RCMP may whenever the run has an aux handler, through which they
// replay.
func Recordable(k isa.Kind, aux bool) bool {
	return k < isa.KindHalt || aux && (k == isa.KindRec || k == isa.KindRcmp)
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

// Build compiles one recorded superblock into a replayable trace. path is
// the sequence of retired PCs for one complete loop iteration: it starts at
// the head and ends with the loop-closing branch whose execution returned
// to the head. elim (may be nil) marks eliminated-store NOPs for amnesic
// statistics. watch (may be nil) marks the run's watched PCs: each gets a
// CWatch op just before its own, so replay observes it as interpretation
// does. REC and RCMP become CRec/CRcmp ops that replay through the run's
// aux handler. Build panics on kinds the recorder must have filtered (see
// Recordable); that is an internal invariant, not an input error.
func Build(d *isa.Decoded, path []int32, elim, watch []bool) *Trace {
	head := path[0]
	ops := make([]Op, 0, len(path))
	for j, pc := range path {
		next := head
		if j+1 < len(path) {
			next = path[j+1]
		}
		if watch != nil && watch[pc] {
			ops = append(ops, Op{Code: CWatch, PC: pc})
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
			op.AOp = d.Op[pc]
			op.Src1 = uint8(d.Src1[pc]) & 31
			op.Src2 = uint8(d.Src2[pc]) & 31
			op.Taken = next == target
			if op.Taken {
				op.ExitPC = pc + 1
			} else {
				op.ExitPC = target
			}
		case isa.KindRec:
			op.Code = CRec
		case isa.KindRcmp:
			op.Code = CRcmp
		default:
			panic("trace: unrecordable kind on recorded path")
		}
		ops = append(ops, op)
	}
	return &Trace{Head: head, Ops: ops, NInstr: uint64(len(path))}
}
