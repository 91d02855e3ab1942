// Package amnesic implements the amnesic machine: the runtime scheduler of
// paper §3.3 executing compiler-annotated binaries. For every RCMP fetched
// it resolves the fused branch under the configured policy — fire
// recomputation along the slice, or perform the load — and traverses fired
// slices through the SFile/Hist/IBuff microarchitecture of §3.2, leaving
// architectural state untouched until the recomputed value is copied into
// the eliminated load's destination register. A fired slice runs its
// compiled recipe (compiler.Recipe) as one loop over a value frame.
//
// One machine can run several policies at once, as lanes of one pass. A
// valid slice recomputes the value the load would return, and the shadow
// touch gives a recompute the cache access of the load, so every policy
// follows one architectural path over one cache trajectory. The lanes share
// the execution, registers, memory, caches and Hist, and each keeps its own
// policy, IBuff, account and statistics.
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

// ErrLanes rejects several lanes on a binary where their paths can part: a
// slice that loads in its body moves the caches only in the lanes that
// recompute it, and dead-store elimination admits the Compiler policy
// alone. See LaneSafe.
var ErrLanes = errors.New("amnesic: several lanes need a binary with no body-load slice and no dead-store elimination")

// ErrLanesDiverge stops a pass at an RCMP where some lanes recompute and
// some load, and the recomputed value differs from the one in memory: the
// lanes' architectural states would part there.
var ErrLanesDiverge = errors.New("lanes diverge: recomputed value differs from memory")

// errLanesShadow rejects several lanes without the shadow touch, under
// which a recompute leaves the caches alone and a load does not.
var errLanesShadow = errors.New("amnesic: several lanes need the shadow touch")

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

// Lane is one policy's share of a pass: the policy and IBuff that resolve
// its RCMPs, and its run's account and statistics. After Run, a lane's Acct
// and Stat equal those of a one-lane machine under its policy.
type Lane struct {
	Policy policy.Policy
	IBuff  *uarch.IBuff
	Acct   energy.Account
	Stat   Stats

	// compilerDecision caches Policy.Kind() == policy.Compiler for the
	// duration of a run: the Compiler policy's answer is a constant, so
	// execRCMP skips the per-RCMP Ctx construction and dynamic dispatch.
	compilerDecision bool
	// loads marks, within one RCMP, a lane that performs the load.
	loads bool
}

// Machine executes an annotated program under one policy, or under several
// as lanes of one pass (NewLanes).
type Machine struct {
	Model *energy.Model
	Hier  *mem.Hierarchy
	Mem   *mem.Memory
	Ann   *compiler.Annotated

	SFile *uarch.SFile
	Hist  *uarch.Hist

	// Lane is the first lane. A one-lane machine (New) counts its whole
	// run into its Acct and Stat, as it always has.
	Lane
	// Lanes lists every lane in the order NewLanes got their policies;
	// Lanes[0] is &Lane.
	Lanes []*Lane

	Regs [isa.NumRegs]uint64
	PC   int

	// MaxInstrs bounds the run; 0 means exec.DefaultMaxInstrs. On several
	// lanes the pass stops at it, and a lane whose total exceeds it fails
	// the run at exit.
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
	// same line reads Mem. See BenchmarkAblationShadowTouch. Several lanes
	// need it on.
	ShadowTouch bool

	// pass counts what every lane counts alike: the instructions the exec
	// loop retires, RECs and RCMP fetches, and the RCMP, REC, NOP and Hist
	// statistics. On one lane it is &Lane, so the lane's fields are the
	// pass's; on several it is &shared, which Run adds into each lane.
	pass   *Lane
	shared Lane

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

	// frame is the value frame recipes run over, sized by New for the
	// largest one. Position 0 is never written, so it always reads zero.
	frame []uint64
}

// LaneSafe reports whether ann can run several policies as lanes of one
// pass: no slice loads in its body and dead-store elimination did not run.
func LaneSafe(ann *compiler.Annotated) bool {
	if ann.DeadStoreElim {
		return false
	}
	for _, si := range ann.Slices {
		if si.Recipe.HasLoad {
			return false
		}
	}
	return true
}

// New builds a one-lane machine over fresh caches and the given memory
// image.
func New(model *energy.Model, ann *compiler.Annotated, m *mem.Memory, pol policy.Policy, cfg uarch.Config) (*Machine, error) {
	return NewLanes(model, ann, m, []policy.Policy{pol}, cfg)
}

// NewLanes builds a machine that runs the policies as lanes of one pass,
// over fresh caches and the given memory image. More than one lane needs a
// binary LaneSafe accepts.
func NewLanes(model *energy.Model, ann *compiler.Annotated, m *mem.Memory, pols []policy.Policy, cfg uarch.Config) (*Machine, error) {
	if len(pols) == 0 {
		return nil, errors.New("amnesic: a machine needs a policy")
	}
	if len(pols) > 1 && !LaneSafe(ann) {
		return nil, ErrLanes
	}
	for _, pol := range pols {
		if ann.DeadStoreElim && pol.Kind() != policy.Compiler {
			return nil, ErrPolicyDSE
		}
	}
	mach := &Machine{
		Model: model,
		Hier:  mem.NewDefaultHierarchy(),
		Mem:   m,
		Ann:   ann,
		SFile: uarch.NewSFile(cfg.SFileEntries),
		Hist:  uarch.NewHist(cfg.HistEntries),

		ShadowTouch:  true,
		Trace:        trace.DefaultConfig(),
		failedSlices: make([]bool, len(ann.Slices)),
	}
	mach.Lanes = make([]*Lane, len(pols))
	for i, pol := range pols {
		l := &mach.Lane
		if i > 0 {
			l = new(Lane)
		}
		l.Policy = pol
		l.IBuff = uarch.NewIBuff(cfg.IBuffEntries)
		l.Stat.SliceRecomputes = make([]uint64, len(ann.Slices))
		mach.Lanes[i] = l
	}
	mach.pass = &mach.Lane
	if len(pols) > 1 {
		mach.pass = &mach.shared
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
	frame := 1
	for _, si := range ann.Slices {
		frame = max(frame, si.Recipe.FrameLen())
	}
	mach.frame = make([]uint64, frame)
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
// their events into the accounts directly. Trace reuse (m.Trace, on by default)
// replays hot loops including ones crossing REC/RCMP: those sites record
// as trace entries that call back into the same handlers at replay, so a
// trace holds no recipe state of its own.
//
// On several lanes the pass counts only what the lanes share, and at exit
// adds it into every lane's own counts and prices each lane once. A machine
// runs once.
func (m *Machine) Run() error { return m.run(m) }

// run executes the program with aux handling the amnesic opcodes.
func (m *Machine) run(aux exec.Aux) error {
	max := m.MaxInstrs
	if max == 0 {
		max = exec.DefaultMaxInstrs
	}
	if len(m.Lanes) > 1 && !m.ShadowTouch {
		return errLanesShadow
	}
	m.Regs[isa.R0] = 0
	m.PC = 0
	// Resolved once per run (the policies are fixed while exec.Run is
	// live): lets execRCMP skip the per-RCMP dynamic dispatch for the
	// constant-answer Compiler policy.
	for _, l := range m.Lanes {
		l.compilerDecision = l.Policy.Kind() == policy.Compiler
	}
	pass := m.pass
	env := exec.Env{
		Model:     m.Model,
		Hier:      m.Hier,
		Mem:       m.Mem,
		Regs:      &m.Regs,
		Acct:      &pass.Acct,
		MaxInstrs: max,
		Aux:       aux,
		StoreHook: m.StoreHook,
		ElimNOP:   m.elimNOP,
		NopSkips:  &pass.Stat.NOPsSkipped,
		Trace:     m.Trace,
	}
	err := exec.Run(&env, m.Ann.Prog)
	m.PC = env.PC
	m.Engine = env.Engine
	if err == nil {
		// Reached HALT: record the Hist high-water mark (§5.4 sizing).
		pass.Stat.HistMaxUsed = m.Hist.MaxUsed
	}
	if pass == &m.Lane {
		return err
	}
	ps := &pass.Stat
	for _, l := range m.Lanes {
		l.Acct.Add(&pass.Acct)
		l.Acct.Price(m.Model)
		l.Stat.RcmpTotal, l.Stat.RecExecuted, l.Stat.RecFailed = ps.RcmpTotal, ps.RecExecuted, ps.RecFailed
		l.Stat.HistMaxUsed, l.Stat.NOPsSkipped = ps.HistMaxUsed, ps.NOPsSkipped
		if err == nil && l.Acct.Instrs > max {
			// The budget the pass kept covers only the shared count; a
			// lane's run alone would have stopped partway.
			err = fmt.Errorf("amnesic: %s lane: %w (%d)", l.Policy.Kind(), exec.ErrInstrBudget, max)
		}
	}
	return err
}

// PassInstrs returns the instructions the pass retired: Acct.Instrs on one
// lane; on several, the part every lane shares, without the RCMPs and
// slice bodies each lane retires itself. It is the count the trace
// engine's replay coverage divides by.
func (m *Machine) PassInstrs() uint64 { return m.pass.Acct.Instrs }

// ExecRec implements exec.Aux: execute the REC at pc.
func (m *Machine) ExecRec(pc int) {
	m.PC = pc // execREC keys its spec table by the current PC
	m.execREC(m.Ann.Prog.Code[pc])
}

// ExecRcmp implements exec.Aux: execute the RCMP at pc, wrapping failures
// in the historical "amnesic: pc ..." form.
func (m *Machine) ExecRcmp(pc int) error {
	m.PC = pc
	if err := m.execRCMP(&m.Ann.Prog.Code[pc]); err != nil {
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
	pass := m.pass
	pass.Acct.AddInstr(isa.CatAmnesic)
	pass.Acct.HistWrites++
	pass.Stat.RecExecuted++
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
		pass.Stat.RecFailed++
		if id := int(in.SliceID); id >= 0 && id < len(m.failedSlices) {
			// Every later RCMP of this slice loads, replayed or not: replay
			// calls ExecRcmp, which reads this bit.
			m.failedSlices[id] = true
		}
	}
}

// execRCMP resolves the fused branch-load (§3.3.2): look the caches up
// once, consult each lane's policy, walk the slice once if any lane
// recomputes, and make the one cache access every lane shares, the shadow
// touch or the load. Each lane counts what its own run would count.
func (m *Machine) execRCMP(in *isa.Instr) error {
	m.pass.Stat.RcmpTotal++

	si := m.rcmpSlices[m.PC] // pre-resolved by New
	if si == nil {
		return fmt.Errorf("RCMP references unknown slice %d", in.SliceID)
	}
	addr := m.ReadReg(in.Src1) + uint64(in.Imm)
	if err := mem.CheckAligned(addr); err != nil {
		return fmt.Errorf("RCMP load: %w", err)
	}
	loc := m.Hier.Lookup(addr)
	level := loc.Level
	r := &si.Recipe
	fits := len(r.Ops) <= m.SFile.Capacity()
	failed := m.failedSlices[si.ID] // (in range: SliceByID bounds-checked it)

	var v uint64
	var n, histReads int
	walked, ok := false, false
	recomputed, loaded := false, false
	for _, l := range m.Lanes {
		l.loads = true
		dec := policy.Decision{Recompute: !failed}
		if !failed && !l.compilerDecision {
			// The runtime-oblivious Compiler policy's answer is a
			// constant, so only the others pay for the Ctx and dispatch.
			dm := m.DecisionModel
			if dm == nil {
				dm = m.Model
			}
			dec = l.Policy.Decide(policy.Ctx{Level: level, Slice: si, Model: dm})
		}
		switch {
		case dec.Recompute && fits:
			// The RCMP acts as a taken branch into the slice: one dynamic
			// instruction of branch-like cost (§4).
			l.Acct.AddInstr(isa.CatAmnesic)
			for _, pl := range dec.ProbeLevels {
				l.Acct.Probes[pl]++
			}
			hits, misses := l.IBuff.Traverse(si.ID, len(r.Ops)+1) // body + RTN
			l.Acct.IBuffHits += uint64(hits)
			l.Acct.Fetches += uint64(misses)
			if !walked {
				// Only a lane of a one-lane machine walks body loads (see
				// LaneSafe), so the walk counts them into that lane.
				v, n, histReads, ok = m.traverse(si, &l.Acct)
				walked = true
			}
			l.countWalk(si, n, histReads, ok)
			if ok {
				l.loads = false
				recomputed = true
				l.Stat.RcmpRecomputed++
				l.Stat.SwappedServiced[level]++
				l.Acct.Recomputed++
				continue
			}
			// A walk stopped by a missing Hist entry (e.g. evicted or never
			// recorded on this path) or a misaligned body load falls back
			// to the load, like a failed REC would.
		case dec.Recompute:
			l.Stat.SFileRejected++
		}
		loaded = true
	}
	if walked && r.HasLoad {
		// AccessAt needs a lookup made since the last access, and the
		// walk's body loads accessed the caches.
		loc = m.Hier.Lookup(addr)
	}
	if !loaded {
		m.WriteReg(in.Dst, v^m.TamperRTN)
		if m.ShadowTouch {
			m.Hier.AccessAt(addr, false, loc)
		}
		return nil
	}

	// Perform the load along the classic trajectory: one dynamic load
	// instruction plus the RCMP's branch-resolution overhead, which Price
	// charges per RcmpLoads. Under a dead-store-eliminated binary this
	// fallback would read memory the eliminated stores never wrote — fail
	// loudly instead of silently corrupting state.
	if m.Ann.DeadStoreElim {
		return fmt.Errorf("RCMP fallback load for slice %d under a dead-store-eliminated binary", si.ID)
	}
	// The lanes that recompute take this same access as their shadow touch.
	res := m.Hier.AccessAt(addr, false, loc)
	val := m.Mem.Load(addr)
	for _, l := range m.Lanes {
		if l.loads {
			l.Acct.AddWritebacks(res.WritebackL2, res.WritebackMem)
			l.Acct.AddLoad(res.Level)
			l.Acct.RcmpLoads++
			l.Stat.RcmpLoaded++
		}
	}
	if recomputed && v^m.TamperRTN != val {
		return fmt.Errorf("%w: slice %d recomputed %#x, memory holds %#x", ErrLanesDiverge, si.ID, v^m.TamperRTN, val)
	}
	m.WriteReg(in.Dst, val)
	return nil
}

// traverse re-executes the slice body leaves-to-root (§3.3.2) as one loop
// over its recipe: the live registers and Hist slots are copied into the
// value frame, each op reads its operands from frame positions and writes
// its result (its SFile entry) to its own, and the root value is returned
// for the RCMP to copy into the load's destination register (RTN
// semantics). It counts only the body loads, into acct; countWalk counts
// the rest for each lane that recomputes.
//
// The walk stops early at the op that reads a missing Hist entry or at a
// body load of a misaligned address, and reports false. It has then
// performed exactly the ops before that one, n of them, and read histReads
// Hist operands, through the failing one; the RCMP falls back to the load.
func (m *Machine) traverse(si *compiler.SliceInfo, acct *energy.Account) (v uint64, n, histReads int, done bool) {
	r := &si.Recipe
	f := m.frame[:r.FrameLen()]
	for i, reg := range r.Live {
		f[1+i] = m.Regs[reg]
	}
	// n ops run and histReads Hist operands are read, unless a Hist slot
	// is missing: the walk then stops at the op that reads it.
	n, histReads = len(r.Ops), len(r.Hist)
	hist := f[1+len(r.Live):]
	for k, hs := range r.Hist {
		v, ok := m.Hist.Read(hs.ID, hs.Slot)
		if !ok {
			n, histReads = hs.Op, k+1
			break
		}
		hist[k] = v
	}
	done = n == len(r.Ops)
	res := f[r.Results():]
	for i := range r.Ops[:n] {
		op := &r.Ops[i]
		a := f[op.Src[0]]
		if op.Op == isa.LD {
			addr := a + uint64(op.Imm)
			if mem.CheckAligned(addr) != nil {
				// The walk read the operands of ops 0..i, then stopped.
				n, done, histReads = i, false, 0
				for histReads < len(r.Hist) && r.Hist[histReads].Op <= i {
					histReads++
				}
				break
			}
			acc := m.Hier.Access(addr, false)
			acct.AddWritebacks(acc.WritebackL2, acc.WritebackMem)
			acct.AddLoad(acc.Level)
			res[i] = m.Mem.Load(addr)
			continue
		}
		res[i] = isa.EvalComputeOp(op.Op, op.Imm, a, f[op.Src[1]], f[op.Src[2]])
	}
	if !done {
		return 0, n, histReads, false
	}
	return res[n-1], n, histReads, true
}

// countWalk counts a walk of si into the lane: the n ops it ran but its
// body loads (traverse counted those), the Hist reads, and, when the walk
// completed, the RTN (§3.1.2) and the slice's firing.
func (l *Lane) countWalk(si *compiler.SliceInfo, n, histReads int, done bool) {
	a := &l.Acct
	a.SliceInstrs += uint64(n)
	a.HistReads += uint64(histReads)
	for i := range si.Recipe.Ops[:n] {
		if op := &si.Recipe.Ops[i]; op.Op != isa.LD {
			a.AddInstr(op.Cat)
		}
	}
	if done {
		a.AddInstr(isa.CatAmnesic) // RTN
		l.Stat.SliceRecomputes[si.ID]++
	}
}
