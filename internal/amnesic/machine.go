// Package amnesic implements the amnesic machine: the runtime scheduler of
// paper §3.3 executing compiler-annotated binaries. For every RCMP fetched
// it resolves the fused branch under the configured policy — fire
// recomputation along the slice, or perform the load — and traverses fired
// slices through the SFile/Hist/IBuff microarchitecture of §3.2, leaving
// architectural state untouched until the recomputed value is copied into
// the eliminated load's destination register.
package amnesic

import (
	"errors"
	"fmt"

	"github.com/amnesiac-sim/amnesiac/internal/compiler"
	"github.com/amnesiac-sim/amnesiac/internal/energy"
	"github.com/amnesiac-sim/amnesiac/internal/exec"
	"github.com/amnesiac-sim/amnesiac/internal/isa"
	"github.com/amnesiac-sim/amnesiac/internal/mem"
	"github.com/amnesiac-sim/amnesiac/internal/policy"
	"github.com/amnesiac-sim/amnesiac/internal/trace"
	"github.com/amnesiac-sim/amnesiac/internal/uarch"
)

// ErrPolicyDSE rejects unsafe policy/binary combinations: a binary with
// dead stores eliminated is only architecturally correct when every RCMP
// always recomputes (the Compiler policy).
var ErrPolicyDSE = errors.New("amnesic: dead-store-eliminated binary requires the Compiler policy")

// Stats collects amnesic-specific runtime statistics.
type Stats struct {
	// RcmpTotal counts dynamic RCMP instances; RcmpRecomputed of them fired
	// recomputation, RcmpLoaded performed the load.
	RcmpTotal, RcmpRecomputed, RcmpLoaded uint64
	// SwappedServiced profiles, per hierarchy level, where the loads
	// swapped at runtime (i.e. RCMPs that fired) would have been serviced —
	// the paper's Table 5 per-policy profile.
	SwappedServiced [energy.NumLevels]uint64
	// RecExecuted / RecFailed count REC instances; a failed REC (Hist
	// overflow) permanently disables its slice (§3.5).
	RecExecuted, RecFailed uint64
	// SliceRecomputes counts recomputation firings per slice ID. Slice IDs
	// are dense (a slice's position in Ann.Slices), so this is a plain
	// slice indexed by ID, sized at machine construction.
	SliceRecomputes []uint64
	// SFileRejected counts RCMPs that had to load because the slice body
	// exceeded SFile capacity.
	SFileRejected uint64
	// HistMaxUsed is the Hist high-water mark (§5.4 sizing).
	HistMaxUsed int
	// NOPsSkipped counts eliminated-store NOPs executed.
	NOPsSkipped uint64
}

// Machine executes an annotated program under a policy.
type Machine struct {
	Model  *energy.Model
	Hier   *mem.Hierarchy
	Mem    *mem.Memory
	Ann    *compiler.Annotated
	Policy policy.Policy

	SFile *uarch.SFile
	Hist  *uarch.Hist
	IBuff *uarch.IBuff

	Regs [isa.NumRegs]uint64
	PC   int
	Acct energy.Account
	Stat Stats

	// MaxInstrs bounds the run; 0 means exec.DefaultMaxInstrs.
	MaxInstrs uint64

	// Trace configures the trace-reuse engine for this run. New defaults it
	// on (trace.DefaultConfig, matching the classic core): hot loops replay
	// through REC/RCMP via the exec.Aux callbacks, bit-identical to
	// interpretation. Set the zero Config to opt out. Engine, after Run, is
	// the engine used (nil when tracing was off).
	Trace  trace.Config
	Engine *trace.Engine

	// StoreHook, if non-nil, observes every architectural store (ST) in
	// retirement order. The differential tester uses it to compare the
	// amnesic store stream against classic execution; plain runs leave it
	// nil for speed.
	StoreHook func(addr, val uint64)

	// TamperRTN is fault injection for the differential oracle's negative
	// tests: a non-zero value is XORed into every value an RTN copies into
	// the eliminated load's destination register, deliberately breaking the
	// semantics-preservation property the oracle must catch. Production runs
	// leave it zero.
	TamperRTN uint64

	// DecisionModel, when non-nil, is the energy model policies consult to
	// resolve RCMPs, while Model prices the account. A run accounted under
	// a scaled model with decisions at the default one counts exactly what
	// the default run counts; the Table 6 break-even sweep (§5.5) relies on
	// that to re-price one default run instead of re-simulating.
	DecisionModel *energy.Model

	// ShadowTouch (default true, set by New) updates cache state — without
	// charging energy or latency — when recomputation replaces a load, so
	// the hierarchy evolves along the classic trajectory and policy probes
	// see the service levels the paper's Table 5 reports. Disabling it
	// exposes the temporal-locality degradation of recomputation the
	// paper's §5 notes ("recomputation degraded temporal locality"):
	// recomputed lines never warm the caches, so every later probe of the
	// same line reads Mem. See BenchmarkAblationShadowTouch.
	ShadowTouch bool

	// failedSlices is indexed by slice ID (IDs are dense: the slice's
	// position in Ann.Slices).
	failedSlices []bool

	// Dense per-PC pre-resolutions built by New, so the run loop never
	// touches the Annotated's maps: each RCMP's slice pointer, each REC's
	// checkpoint spec, and the eliminated-store NOP marks.
	rcmpSlices []*compiler.SliceInfo
	recSpecs   []compiler.RecSpec
	recSpecOK  []bool
	elimNOP    []bool

	// compilerDecision caches Policy.Kind() == policy.Compiler for the
	// duration of a run: the Compiler policy's answer is a constant, so
	// execRCMP skips the per-RCMP Ctx construction and dynamic dispatch.
	compilerDecision bool
}

// New builds a machine over fresh caches and the given memory image.
func New(model *energy.Model, ann *compiler.Annotated, m *mem.Memory, pol policy.Policy, cfg uarch.Config) (*Machine, error) {
	if ann.DeadStoreElim && pol.Kind() != policy.Compiler {
		return nil, ErrPolicyDSE
	}
	mach := &Machine{
		Model:  model,
		Hier:   mem.NewDefaultHierarchy(),
		Mem:    m,
		Ann:    ann,
		Policy: pol,
		SFile:  uarch.NewSFile(cfg.SFileEntries),
		Hist:   uarch.NewHist(cfg.HistEntries),
		IBuff:  uarch.NewIBuff(cfg.IBuffEntries),
		Stat:   Stats{SliceRecomputes: make([]uint64, len(ann.Slices))},

		ShadowTouch:  true,
		Trace:        trace.DefaultConfig(),
		failedSlices: make([]bool, len(ann.Slices)),
	}
	n := len(ann.Prog.Code)
	mach.rcmpSlices = make([]*compiler.SliceInfo, n)
	mach.recSpecs = make([]compiler.RecSpec, n)
	mach.recSpecOK = make([]bool, n)
	mach.elimNOP = make([]bool, n)
	for pc, in := range ann.Prog.Code {
		switch in.Op {
		case isa.RCMP:
			// A nil entry (unknown slice ID) is kept and rejected at
			// execution time, preserving the runtime diagnostic.
			mach.rcmpSlices[pc] = ann.SliceByID(in.SliceID)
		case isa.REC:
			if spec, ok := ann.RecSpecs[pc]; ok {
				mach.recSpecs[pc], mach.recSpecOK[pc] = spec, true
			}
		}
		if ann.ElimNOPPCs[pc] {
			mach.elimNOP[pc] = true
		}
	}
	return mach, nil
}

// ReadReg returns a register value honoring the zero register.
func (m *Machine) ReadReg(r isa.Reg) uint64 {
	if r == isa.R0 {
		return 0
	}
	return m.Regs[r]
}

// WriteReg writes a register, discarding R0 writes.
func (m *Machine) WriteReg(r isa.Reg, v uint64) {
	if r != isa.R0 {
		m.Regs[r] = v
	}
}

// Run executes the annotated program to HALT on the shared dispatch core
// (internal/exec): pre-decoded struct-of-arrays dispatch, masked register
// indices, inline hot ALU ops, a two-entry flat-window data micro-TLB, and
// integer event counts the core prices under m.Model once, at exit. The
// amnesic opcodes (REC/RCMP and the slices they traverse) keep their
// out-of-line handlers, reached through the exec.Aux interface, which count
// their events into m.Acct directly. Trace reuse (m.Trace, on by default)
// replays hot loops including ones crossing REC/RCMP: those sites record
// as trace entries that call back into the same handlers at replay, so a
// trace holds no recipe state of its own.
func (m *Machine) Run() error {
	max := m.MaxInstrs
	if max == 0 {
		max = exec.DefaultMaxInstrs
	}
	m.Regs[isa.R0] = 0
	m.PC = 0
	// Resolved once per run (Policy is fixed while exec.Run is live):
	// lets execRCMP skip the per-RCMP dynamic dispatch for the
	// constant-answer Compiler policy.
	m.compilerDecision = m.Policy.Kind() == policy.Compiler
	env := exec.Env{
		Model:     m.Model,
		Hier:      m.Hier,
		Mem:       m.Mem,
		Regs:      &m.Regs,
		Acct:      &m.Acct,
		MaxInstrs: max,
		Aux:       m,
		StoreHook: m.StoreHook,
		ElimNOP:   m.elimNOP,
		NopSkips:  &m.Stat.NOPsSkipped,
		Trace:     m.Trace,
	}
	err := exec.Run(&env, m.Ann.Prog)
	m.PC = env.PC
	m.Engine = env.Engine
	if err == nil {
		// Reached HALT: record the Hist high-water mark (§5.4 sizing).
		m.Stat.HistMaxUsed = m.Hist.MaxUsed
	}
	return err
}

// ExecRec implements exec.Aux: execute the REC at pc.
func (m *Machine) ExecRec(pc int) {
	m.PC = pc // execREC keys its spec table by the current PC
	m.execREC(m.Ann.Prog.Code[pc])
}

// ExecRcmp implements exec.Aux: execute the RCMP at pc, wrapping failures
// in the historical "amnesic: pc ..." form.
func (m *Machine) ExecRcmp(pc int) error {
	m.PC = pc
	if err := m.execRCMP(m.Ann.Prog.Code[pc]); err != nil {
		return fmt.Errorf("amnesic: pc %d (%s): %w", pc, m.Ann.Prog.Code[pc], err)
	}
	return nil
}

// StrayRtn implements exec.Aux: slice bodies are traversed inline by
// execRCMP, so control never legitimately falls into an RTN.
func (m *Machine) StrayRtn(pc int) error {
	return fmt.Errorf("amnesic: pc %d (%s): %w", pc, m.Ann.Prog.Code[pc], errStrayRTN)
}

// errStrayRTN preserves the historical step-loop error text.
var errStrayRTN = errors.New("stray RTN outside recomputation")

// execREC checkpoints the masked registers into Hist (§3.3.2 step 0). Its
// cost is modeled after a store to L1-D (§4). A capacity overflow fails the
// REC and permanently disables the owning slice (§3.5).
func (m *Machine) execREC(in isa.Instr) {
	m.Acct.AddInstr(isa.CatAmnesic)
	m.Acct.HistWrites++
	m.Stat.RecExecuted++
	if !m.recSpecOK[m.PC] {
		// Defensive: a REC with no spec records nothing.
		return
	}
	spec := &m.recSpecs[m.PC]
	var vals [3]uint64
	for slot := 0; slot < 3; slot++ {
		if spec.Mask&(1<<uint(slot)) != 0 {
			vals[slot] = m.ReadReg(spec.Regs[slot])
		}
	}
	if !m.Hist.Write(spec.HistID, vals, spec.Mask) {
		m.Stat.RecFailed++
		if id := int(in.SliceID); id >= 0 && id < len(m.failedSlices) {
			// Every later RCMP of this slice loads, replayed or not: replay
			// calls ExecRcmp, which reads this bit.
			m.failedSlices[id] = true
		}
	}
}

// execRCMP resolves the fused branch-load (§3.3.2): consult the policy,
// then either traverse the slice or perform the load.
func (m *Machine) execRCMP(in isa.Instr) error {
	m.Stat.RcmpTotal++

	si := m.rcmpSlices[m.PC] // pre-resolved by New
	if si == nil {
		return fmt.Errorf("RCMP references unknown slice %d", in.SliceID)
	}
	addr := m.ReadReg(in.Src1) + uint64(in.Imm)
	if err := mem.CheckAligned(addr); err != nil {
		return fmt.Errorf("RCMP load: %w", err)
	}
	level := m.Hier.Peek(addr)

	dec := policy.Decision{Recompute: false}
	if !m.failedSlices[si.ID] {
		// (si.ID is in range: SliceByID bounds-checked it above.)
		if m.compilerDecision {
			// The runtime-oblivious policy's answer is a constant; skip
			// the Ctx construction and dynamic dispatch on what is the
			// hottest per-RCMP consult under the default configuration.
			dec.Recompute = true
		} else {
			dm := m.DecisionModel
			if dm == nil {
				dm = m.Model
			}
			dec = m.Policy.Decide(policy.Ctx{Level: level, Slice: si, Model: dm})
		}
	}
	if dec.Recompute && len(si.Body) <= m.SFile.Capacity() {
		// The RCMP acts as a taken branch into the slice: one dynamic
		// instruction of branch-like cost (§4).
		m.Acct.AddInstr(isa.CatAmnesic)
		for _, l := range dec.ProbeLevels {
			m.Acct.Probes[l]++
		}
		v, err := m.traverse(si)
		v ^= m.TamperRTN
		if err == nil {
			m.Stat.RcmpRecomputed++
			m.Stat.SwappedServiced[level]++
			m.Acct.Recomputed++
			m.WriteReg(in.Dst, v)
			if m.ShadowTouch {
				m.Hier.Access(addr, false)
			}
			return nil
		}
		// A missing Hist entry (e.g. evicted or never recorded on this
		// path) falls back to the load, like a failed REC would.
	} else if dec.Recompute {
		m.Stat.SFileRejected++
	}

	// Perform the load along the classic trajectory: one dynamic load
	// instruction plus the RCMP's branch-resolution overhead, which Price
	// charges per RcmpLoads. Under a dead-store-eliminated binary this
	// fallback would read memory the eliminated stores never wrote — fail
	// loudly instead of silently corrupting state.
	if m.Ann.DeadStoreElim {
		return fmt.Errorf("RCMP fallback load for slice %d under a dead-store-eliminated binary", si.ID)
	}
	res := m.Hier.Access(addr, false)
	m.Acct.AddWritebacks(res.WritebackL2, res.WritebackMem)
	m.Acct.AddLoad(res.Level)
	m.Acct.RcmpLoads++
	m.Stat.RcmpLoaded++
	m.WriteReg(in.Dst, m.Mem.Load(addr))
	return nil
}

// traverse re-executes the slice body leaves-to-root (§3.3.2): operands come
// from SFile (intermediate results), Hist (checkpointed inputs), or the
// architectural register file (live values); results flow through SFile
// only; the root value is returned for the RCMP to copy into the load's
// destination register (RTN semantics). Instruction supply is counted as
// IBuff hits and L1-I fetches.
func (m *Machine) traverse(si *compiler.SliceInfo) (uint64, error) {
	if !m.SFile.Begin(len(si.Body)) {
		return 0, errors.New("sfile overflow")
	}
	hits, misses := m.IBuff.Traverse(si.ID, len(si.Body)+1) // body + RTN
	m.Acct.IBuffHits += uint64(hits)
	m.Acct.Fetches += uint64(misses)

	for idx := range si.Body {
		bi := &si.Body[idx]
		var ops [3]uint64
		for slot := 0; slot < 3; slot++ {
			src := bi.Srcs[slot]
			switch src.Kind {
			case compiler.SrcNone, compiler.SrcZero:
				ops[slot] = 0
			case compiler.SrcSFile:
				v, ok := m.SFile.Read(src.BodyIdx)
				if !ok {
					return 0, fmt.Errorf("slice %d: SFile slot %d invalid", si.ID, src.BodyIdx)
				}
				ops[slot] = v
			case compiler.SrcLive:
				ops[slot] = m.ReadReg(src.Reg)
			case compiler.SrcHist:
				v, ok := m.Hist.Read(src.HistID, src.Slot)
				m.Acct.HistReads++
				if !ok {
					return 0, fmt.Errorf("slice %d: hist entry %d/%d missing", si.ID, src.HistID, src.Slot)
				}
				ops[slot] = v
			}
		}
		var v uint64
		if bi.In.Op == isa.LD {
			if !bi.ReadOnlyLoad {
				return 0, fmt.Errorf("slice %d: non-read-only load in body", si.ID)
			}
			addr := ops[0] + uint64(bi.In.Imm)
			if err := mem.CheckAligned(addr); err != nil {
				return 0, fmt.Errorf("slice %d: body load: %w", si.ID, err)
			}
			res := m.Hier.Access(addr, false)
			m.Acct.AddWritebacks(res.WritebackL2, res.WritebackMem)
			m.Acct.AddLoad(res.Level)
			v = m.Mem.Load(addr)
		} else {
			m.Acct.AddInstr(isa.CategoryOf(bi.In.Op))
			v = isa.EvalCompute(bi.In, ops[0], ops[1], ops[2])
		}
		m.Acct.SliceInstrs++
		m.SFile.Write(idx, v)
	}
	// RTN: return + copy SFile root into the destination (§3.1.2).
	m.Acct.AddInstr(isa.CatAmnesic)
	root, ok := m.SFile.Read(len(si.Body) - 1)
	if !ok {
		return 0, fmt.Errorf("slice %d: empty body", si.ID)
	}
	m.Stat.SliceRecomputes[si.ID]++
	return root, nil
}
