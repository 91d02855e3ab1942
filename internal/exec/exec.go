// Package exec implements the shared decoded-dispatch execution core used
// by the classic core (cpu.Core) and the amnesic machine's fast path. Both
// loops previously hand-copied the same idiom — pre-decoded
// struct-of-arrays dispatch, re-sliced arrays for a single bounds check,
// masked register indices, an inline hot-ALU switch, a two-entry flat-window
// data micro-TLB, and local event counters folded into the account at exit —
// so trace support would have had to land twice. It now lands once, here.
//
// The loop only counts events: retired instructions by category, loads and
// stores by servicing level, writebacks, and L1-I fetches. Energy and time
// are priced once from those counts at exit (energy.Account.Price), so the
// loop carries no floating-point state.
//
// The core also hosts the trace-reuse engine (internal/trace): the engine
// detects hot loop heads from the arrivals the core reports (taken backward
// branches and unlinked side exits) and records them into superblocks,
// which the core replays as dense loop bodies with one guard per recorded
// conditional branch. Each replayed op is one instruction, executed and
// counted as its interpreter case executes and counts it, so replay is
// bit-identical to interpretation, and every memory access still probes
// the cache hierarchy so its state evolves unchanged. A Watch does not stop
// a loop from replaying: its PCs record as observer ops.
//
// The profiler's fused interpreter (internal/profile) and the flat reference
// stepper (internal/ref) deliberately do NOT consume this core: the
// profiler interleaves shadow dependence tracking that has no energy model
// and would only slow this loop down (its hot loops go through the same
// trace.Engine, and it replays them itself), and the reference must stay
// an independent implementation for the differential oracle to be able to
// catch bugs here (an oracle that shares its subject's dispatch loop can
// only agree with it). See DESIGN.md.
package exec

import (
	"errors"
	"fmt"

	"github.com/amnesiac-sim/amnesiac/internal/energy"
	"github.com/amnesiac-sim/amnesiac/internal/isa"
	"github.com/amnesiac-sim/amnesiac/internal/mem"
	"github.com/amnesiac-sim/amnesiac/internal/trace"
)

// DefaultMaxInstrs bounds dynamic instruction count to guard against
// non-terminating programs. cpu.DefaultMaxInstrs aliases it.
const DefaultMaxInstrs = 200_000_000

// ErrInstrBudget is returned when execution exceeds Env.MaxInstrs. The text
// keeps the historical "cpu:" prefix; cpu.ErrInstrBudget aliases this exact
// value so errors.Is keeps working across both packages.
var ErrInstrBudget = errors.New("cpu: dynamic instruction budget exceeded")

// ErrCrash is returned when execution reaches Env.CrashAt: the injected
// fault for checkpoint/restart testing. State left in Env (Regs, Mem, Acct,
// PC) is exactly the state at the crash boundary — the "machine died here"
// snapshot a restart must never rely on.
var ErrCrash = errors.New("exec: injected crash")

// Aux handles the amnesic opcodes the shared loop cannot execute inline.
// Handlers count their events into Env.Acct directly. The loop counts the
// REC/RCMP fetch itself and adds the instructions a handler retired to its
// budget count; it writes no other account field until the run exits. A
// nil Aux (the classic core) turns the amnesic kinds into the classic
// "amnesic opcode on classic core" error.
type Aux interface {
	// ExecRec executes a REC at pc (checkpointing; cannot fail).
	ExecRec(pc int)
	// ExecRcmp executes an RCMP at pc. A non-nil error (already wrapped in
	// the owner's "amnesic: pc ..." form) aborts the run.
	ExecRcmp(pc int) error
	// StrayRtn builds the error for an RTN reached by straight-line fetch.
	StrayRtn(pc int) error
}

// Env is one execution's parameter block. Run reads the configuration
// fields and writes PC (final program counter) and Engine (the trace engine
// used, nil when tracing is off) back.
type Env struct {
	// Model prices Acct when the run exits.
	Model *energy.Model
	Hier  *mem.Hierarchy
	Mem   *mem.Memory
	Regs  *[isa.NumRegs]uint64
	Acct  *energy.Account

	// MaxInstrs bounds the run; 0 means DefaultMaxInstrs.
	MaxInstrs uint64
	// Aux executes REC/RCMP/RTN (amnesic machine only). A nil Aux is the
	// classic core: it selects the classic error texts and rejects the
	// amnesic kinds.
	Aux Aux
	// StoreHook, if non-nil, observes every architectural store in
	// retirement order.
	StoreHook func(addr, val uint64)
	// ElimNOP marks eliminated-store NOPs (amnesic); NopSkips counts the
	// ones executed. Both nil for classic.
	ElimNOP  []bool
	NopSkips *uint64

	// Trace configures the trace-reuse engine.
	Trace trace.Config

	// Watch, if non-nil, observes its PCs during the run (see Watch). A nil
	// Watch leaves the run exactly as fast as it was without one.
	Watch *Watch

	// StartPC is the program counter execution begins at (resume from a
	// checkpoint; 0 for a fresh run).
	StartPC int
	// StopAt, when non-zero, pauses the run cleanly once Acct.Instrs reaches
	// it: Run returns nil with Stopped=true and PC at the resume point. The
	// checkpoint engine uses it to slice one execution into intervals.
	StopAt uint64
	// CrashAt, when non-zero, aborts with ErrCrash once Acct.Instrs reaches
	// it — fault injection at an arbitrary dynamic instruction. CrashAt wins
	// over StopAt at the same boundary.
	CrashAt uint64

	// PC is the final program counter (out).
	PC int
	// Stopped reports that the run paused at StopAt rather than halting
	// (out; false whenever Run returns an error or the program halted).
	Stopped bool
	// Engine is the trace engine the run used, for statistics and tests
	// (out; nil when tracing is disabled).
	Engine *trace.Engine
}

// Watch observes a sparse set of static PCs. Before each dynamic instance
// of a watched PC executes, Run calls Observe with the pc and the live
// machine state: the register file and memory exactly as the instruction
// is about to read them. Observe must not modify either. Instances the run
// never executes (budget exhaustion, StopAt, CrashAt, an earlier fault)
// are not observed.
//
// Watched PCs are recordable: a trace through one carries an observer op
// (trace.CWatch) just before the watched instruction, and replay calls
// Observe there with the live state, so watched loops replay like any
// other. The interpreted part of the run dispatches over a private copy of
// the decoded kinds in which every watched PC carries kindWatch: the
// dispatch switch reaches one cold case there, calls Observe, and
// re-dispatches on the instruction's real kind. The run's architectural
// state and energy account are bit-identical to an unwatched run's, since
// replay and interpretation are.
type Watch struct {
	PCs     []int
	Observe func(pc int, regs *[isa.NumRegs]uint64, m *mem.Memory)
}

// kindWatch marks a watched PC in a watched run's private kinds copy, for
// the interpreter only; the recorder looks through it to the real kind.
const kindWatch = isa.KindBad + 1

// watchKinds returns kinds with every watched PC replaced by kindWatch,
// and the per-PC watch marks trace.Build takes.
func watchKinds(kinds []isa.Kind, pcs []int) ([]isa.Kind, []bool) {
	wk := make([]isa.Kind, len(kinds))
	copy(wk, kinds)
	marks := make([]bool, len(kinds))
	for _, pc := range pcs {
		wk[pc] = kindWatch
		marks[pc] = true
	}
	return wk, marks
}

// prefix returns the error-text prefix for this environment.
func (env *Env) prefix() string {
	if env.Aux == nil {
		return "cpu"
	}
	return "amnesic"
}

// Run executes p from PC 0 until HALT, an error, or budget exhaustion,
// then prices Acct under Model — whichever way the run ends. The caller has
// validated p and zeroed Regs[R0]; the loop reads registers unmasked
// relying on that invariant (R0 writes are guarded).
func Run(env *Env, p *isa.Program) error {
	d := p.Decoded()
	code := p.Code
	n := d.Len()
	max := env.MaxInstrs
	if max == 0 {
		max = DefaultMaxInstrs
	}
	// lim is the first instruction count at which the loop must give way:
	// the budget, a clean pause (StopAt), or an injected crash (CrashAt),
	// whichever comes first. The loop-top check and the trace replayer both
	// trip on lim, so a replayed superblock never crosses a stop or crash
	// boundary any more than it may cross the budget.
	lim := max
	if env.StopAt != 0 && env.StopAt < lim {
		lim = env.StopAt
	}
	if env.CrashAt != 0 && env.CrashAt < lim {
		lim = env.CrashAt
	}
	env.Stopped = false
	kinds, ops, cats := d.Kind[:n], d.Op[:n], d.Cat[:n]
	var watched []bool
	if env.Watch != nil && len(env.Watch.PCs) > 0 {
		kinds, watched = watchKinds(kinds, env.Watch.PCs)
	}
	dsts, src1s, src2s, imms, targets := d.Dst[:n], d.Src1[:n], d.Src2[:n], d.Imm[:n], d.Target[:n]
	hier, l1, memory := env.Hier, env.Hier.L1, env.Mem
	acct := env.Acct
	regs := env.Regs

	// Trace engine construction. All engine state lives in the engine,
	// reached through the rsh block below, NOT in loop locals: every extra
	// value live across the 11-way dispatch switch costs register spills in
	// the hot cases (measured ~20% on the pure interpreter), so the loop
	// keeps exactly one word of trace state — the `slow` mode — and the
	// cold trace paths reload the rest. An Aux handler makes REC and RCMP
	// recordable: traces replay them through the live handler.
	var eng *trace.Engine
	if env.Trace.Enable {
		eng = trace.NewEngine(env.Trace, d, env.ElimNOP, watched, env.Aux != nil)
		env.Engine = eng
	}

	// Flat windows held in locals, forming a two-entry data micro-TLB: the
	// primary arena plus the region that serviced the most recent slow-path
	// access. Both are re-fetched after any store that misses them (growth
	// may reallocate a backing array); since every region growth routes
	// through that slow path, a window can never go stale while live here.
	// The amnesic REC/RCMP handlers never store to memory, so the windows
	// survive handler calls too.
	//
	// arenaWN/w2WN are each window's writable-prefix length — mem's
	// copy-on-write barrier. Loads keep bounding by len(window) (the read
	// path is untouched); only the store fast path compares against the
	// prefix, so the first store into a window shared with a sealed base
	// image takes mem.Store's slow path, which copies the region and is
	// followed here by a window re-fetch picking up the private copy.
	arenaBase, arena, arenaWN := memory.ArenaViewW()
	var w2base, w2WN uint64
	var w2 []uint64

	// instrs is the budget-visible instruction count: everything retired so
	// far, including what Aux handlers retire. The other counts are this
	// run's deltas, held in rsh and folded into the account at exit.
	// acct.Instrs itself is not written until then, so at exit it still
	// holds the entry count plus the handlers' instructions, and the
	// difference is what the loop retired — and fetched — itself.
	instrs := acct.Instrs

	// Parameter block for replayTrace, home of the event counts (see
	// replay.go). rsh is address-taken, so its fields live on the stack and
	// never compete with the interpreter's hot locals for registers; the
	// only trace state the loop itself carries is `slow`.
	rsh := replayShared{
		l1: l1, hier: hier, memory: memory,
		regs: regs, nopSkips: env.NopSkips, storeHook: env.StoreHook,
		code: code, pfx: env.prefix(), max: lim,
		eng: eng, aux: env.Aux, acct: acct, watch: env.Watch,
	}

	// slow selects the loop-top slow path: trace.Interpret (0) is plain
	// interpretation, trace.Replay means the trace headed at the current pc
	// is pending replay, and trace.Record means a recording is open. The
	// engine's arrivals and recording steps set it.
	slow := trace.Interpret

	var rerr error
	pc := env.StartPC
loop:
	for {
		if uint(pc) >= uint(n) {
			if env.Aux == nil {
				rerr = fmt.Errorf("cpu: pc %d out of range (program %q, %d instrs)", pc, p.Name, n)
			} else {
				rerr = fmt.Errorf("amnesic: pc %d out of range (%q)", pc, p.Name)
			}
			break loop
		}
		if instrs >= lim {
			switch {
			case env.CrashAt != 0 && instrs >= env.CrashAt:
				rerr = fmt.Errorf("%w at instruction %d (pc %d)", ErrCrash, instrs, pc)
			case env.StopAt != 0 && instrs >= env.StopAt:
				env.Stopped = true
			default:
				rerr = fmt.Errorf("%w (%d)", ErrInstrBudget, max)
			}
			break loop
		}
		if slow != trace.Interpret {
			if slow == trace.Replay {
				// ---- Trace replay ---------------------------------------
				// replayTrace runs the superblock as a dense loop body until
				// a guard side-exits, a replayed access faults, or the
				// budget check says the next iteration might not fit (the
				// interpreter below then errors at precisely the instruction
				// the budget rule dictates). It counts into rsh and hands
				// the budget count back; see replay.go for why it is its
				// own function.
				replayFrom := instrs
				mw := memWin{arenaBase: arenaBase, arena: arena, arenaWN: arenaWN, w2base: w2base, w2: w2, w2WN: w2WN}
				instrs, mw, pc, rerr = replayTrace(&rsh, eng.Head(pc), instrs, mw)
				arenaBase, arena, arenaWN = mw.arenaBase, mw.arena, mw.arenaWN
				w2base, w2, w2WN = mw.w2base, mw.w2, mw.w2WN
				eng.ReplayedInstrs += instrs - replayFrom
				if rerr != nil {
					break loop
				}
				// The side exit that ended the replay, if no trace linked
				// it, arrived at its target: the arrival may have opened a
				// lateral head's recording there, which runs until
				// execution arrives back there, whatever control flow the
				// path takes. Chained guards then jump straight from trace
				// to trace without interpreting the cold tail in between.
				slow = trace.Interpret
				if eng.Recording() {
					slow = trace.Record
				}
				continue loop
			}
			// ---- Superblock recording -----------------------------------
			// Back at the head the engine closes the path into a trace and
			// replay starts; an unrecordable instruction or an over-long
			// path blacklists the head and interpretation goes on.
			if slow = eng.Step(pc); slow == trace.Replay {
				continue loop
			}
		}
		k := kinds[pc]
	dispatch:
		switch k {
		case isa.KindCompute:
			op := ops[pc]
			a, b := regs[src1s[pc]&31], regs[src2s[pc]&31]
			var v uint64
			switch op {
			case isa.ADD:
				v = a + b
			case isa.ADDI:
				v = a + uint64(imms[pc])
			case isa.LI:
				v = uint64(imms[pc])
			case isa.MOV:
				v = a
			case isa.SUB:
				v = a - b
			case isa.MUL:
				v = a * b
			case isa.AND:
				v = a & b
			case isa.OR:
				v = a | b
			case isa.XOR:
				v = a ^ b
			case isa.SHL:
				v = a << (b & 63)
			case isa.SHR:
				v = a >> (b & 63)
			case isa.SLT:
				if int64(a) < int64(b) {
					v = 1
				}
			case isa.SEQ:
				if a == b {
					v = 1
				}
			default:
				v = isa.EvalComputeOp(op, imms[pc], a, b, regs[dsts[pc]&31])
			}
			if dst := dsts[pc] & 31; dst != 0 {
				regs[dst] = v
			}
			instrs++
			rsh.byCat[cats[pc]&15]++
			pc++
		case isa.KindLoad:
			addr := regs[src1s[pc]&31] + uint64(imms[pc])
			if addr&7 != 0 {
				rerr = fmt.Errorf("%s: pc %d (%s): load: %w", rsh.pfx, pc, code[pc], mem.CheckAligned(addr))
				break loop
			}
			var level energy.Level
			if l1.ProbeHit(addr, false) {
				hier.Serviced[energy.L1]++
				level = energy.L1
			} else {
				level = rsh.miss(addr, false)
			}
			instrs++
			rsh.loadsAt[level]++
			var v uint64
			if off := addr>>3 - arenaBase; off < uint64(len(arena)) {
				v = arena[off]
			} else if off := addr>>3 - w2base; off < uint64(len(w2)) {
				v = w2[off]
			} else {
				v = memory.Load(addr)
				w2base, w2, w2WN, _ = memory.WindowForW(addr)
			}
			if dst := dsts[pc] & 31; dst != 0 {
				regs[dst] = v
			}
			pc++
		case isa.KindStore:
			addr := regs[src1s[pc]&31] + uint64(imms[pc])
			if addr&7 != 0 {
				rerr = fmt.Errorf("%s: pc %d (%s): store: %w", rsh.pfx, pc, code[pc], mem.CheckAligned(addr))
				break loop
			}
			var level energy.Level
			if l1.ProbeHit(addr, true) {
				hier.Serviced[energy.L1]++
				level = energy.L1
			} else {
				level = rsh.miss(addr, true)
			}
			instrs++
			rsh.storesAt[level]++
			v := regs[src2s[pc]&31]
			if off := addr>>3 - arenaBase; off < arenaWN {
				arena[off] = v
			} else if off := addr>>3 - w2base; off < w2WN {
				w2[off] = v
			} else {
				memory.Store(addr, v)
				arenaBase, arena, arenaWN = memory.ArenaViewW()
				w2base, w2, w2WN, _ = memory.WindowForW(addr)
			}
			if rsh.storeHook != nil {
				rsh.storeHook(addr, v)
			}
			pc++
		case isa.KindCondBr:
			instrs++
			rsh.byCat[isa.CatBranch]++
			a, b := regs[src1s[pc]&31], regs[src2s[pc]&31]
			var taken bool
			switch ops[pc] {
			case isa.BEQ:
				taken = a == b
			case isa.BNE:
				taken = a != b
			case isa.BLT:
				taken = int64(a) < int64(b)
			default: // BGE: KindCondBr decodes exactly four opcodes
				taken = int64(a) >= int64(b)
			}
			if taken {
				t := int(targets[pc])
				if t <= pc && slow == trace.Interpret && rsh.eng != nil {
					// Taken back-edge: an arrival at t. While recording,
					// back-edges are just path entries — closure happens
					// when execution arrives back at the recording head.
					slow = rsh.eng.Arrive(t)
				}
				pc = t
			} else {
				pc++
			}
		case isa.KindJmp:
			instrs++
			rsh.byCat[isa.CatBranch]++
			t := int(targets[pc])
			if t <= pc && slow == trace.Interpret && rsh.eng != nil {
				slow = rsh.eng.Arrive(t)
			}
			pc = t
		case isa.KindNop:
			instrs++
			rsh.byCat[isa.CatNop]++
			if elim := env.ElimNOP; elim != nil && elim[pc] {
				*rsh.nopSkips++
			}
			pc++
		case isa.KindHalt:
			instrs++
			rsh.byCat[isa.CatBranch]++
			break loop
		case isa.KindRec:
			if env.Aux == nil {
				rerr = fmt.Errorf("cpu: pc %d (%s): amnesic opcode %s on classic core", pc, code[pc], ops[pc])
				break loop
			}
			acct.Fetches++
			before := acct.Instrs
			env.Aux.ExecRec(pc)
			instrs += acct.Instrs - before
			pc++
		case isa.KindRcmp:
			if env.Aux == nil {
				rerr = fmt.Errorf("cpu: pc %d (%s): amnesic opcode %s on classic core", pc, code[pc], ops[pc])
				break loop
			}
			acct.Fetches++
			before := acct.Instrs
			err := env.Aux.ExecRcmp(pc)
			instrs += acct.Instrs - before
			if err != nil {
				rerr = err
				break loop
			}
			pc++
		case isa.KindRtn:
			if env.Aux == nil {
				rerr = fmt.Errorf("cpu: pc %d (%s): amnesic opcode %s on classic core", pc, code[pc], ops[pc])
				break loop
			}
			// Slice bodies are traversed inline by the RCMP handler; control
			// never falls into them.
			rerr = env.Aux.StrayRtn(pc)
			break loop
		case kindWatch:
			// Cold path: observe the state the instruction is about to
			// read, then execute it under its real kind.
			env.Watch.Observe(pc, regs, memory)
			k = d.Kind[pc]
			goto dispatch
		default:
			rerr = fmt.Errorf("%s: pc %d (%s): unimplemented opcode %s", rsh.pfx, pc, code[pc], ops[pc])
			break loop
		}
	}

	env.PC = pc
	// Every instruction the loop retired itself was fetched through L1-I
	// (REC/RCMP fetches were counted at their dispatch); acct.Instrs still
	// holds the entry count plus what the Aux handlers retired.
	acct.Fetches += instrs - acct.Instrs
	acct.Instrs = instrs
	rsh.fold(acct)
	acct.Price(env.Model)
	return rerr
}
