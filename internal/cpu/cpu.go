// Package cpu implements the classic (non-amnesic) in-order core: the
// baseline execution model every amnesic policy is compared against. The
// core executes an isa.Program over a mem.Hierarchy + mem.Memory, charging
// energy and time through an energy.Account, and exposes a per-instruction
// hook used by the profiler.
//
// Timing model (paper §4): one cycle per non-memory instruction at the
// Table 3 frequency; loads stall for the round-trip latency of the level
// that services them; stores retire at L1-D speed (write-back hierarchy).
//
// The hook-free path executes on the shared dispatch core (internal/exec),
// which also hosts the trace-reuse engine: hot loops are recorded once and
// replayed as fused superblocks (see internal/trace). Tracing is on by
// default for classic runs — replay is bit-identical to interpretation in
// both architectural state and energy accounting — and can be tuned or
// disabled through the Trace field. The hooked path stays a plain
// interpreter: per-instruction events are incompatible with replay.
package cpu

import (
	"fmt"

	"github.com/amnesiac-sim/amnesiac/internal/energy"
	"github.com/amnesiac-sim/amnesiac/internal/exec"
	"github.com/amnesiac-sim/amnesiac/internal/isa"
	"github.com/amnesiac-sim/amnesiac/internal/mem"
	"github.com/amnesiac-sim/amnesiac/internal/trace"
)

// DefaultMaxInstrs bounds dynamic instruction count to guard against
// non-terminating programs. It aliases the shared core's limit.
const DefaultMaxInstrs = exec.DefaultMaxInstrs

// ErrInstrBudget is returned when execution exceeds MaxInstrs. It is the
// shared core's sentinel, so errors.Is works against either name.
var ErrInstrBudget = exec.ErrInstrBudget

// ChargeTable and BuildCharges moved to the shared execution core; the
// aliases keep existing callers (profiler, tests) compiling unchanged.
type ChargeTable = exec.ChargeTable

// BuildCharges derives the charge table from a read-only model.
func BuildCharges(m *energy.Model) ChargeTable { return exec.BuildCharges(m) }

// Event describes one retired instruction, delivered to the Hook.
type Event struct {
	PC    int
	In    isa.Instr
	Addr  uint64       // effective address (LD/ST only)
	Value uint64       // value loaded or stored (LD/ST only)
	Level energy.Level // servicing level (LD/ST only)
	// SrcVals holds the pre-execution operand values: Src1, Src2, and the
	// old Dst (the FMA accumulator input). Valid for compute, load (Src1 =
	// address base) and store (Src1 = base, Src2 = value) instructions.
	SrcVals [3]uint64
}

// Core is the classic in-order core. Construct with New, then Run.
type Core struct {
	Model *energy.Model
	Hier  *mem.Hierarchy
	Mem   *mem.Memory
	Regs  [isa.NumRegs]uint64
	PC    int
	Acct  energy.Account

	// MaxInstrs bounds the run; 0 means DefaultMaxInstrs.
	MaxInstrs uint64
	// Hook, if non-nil, observes every retired instruction. The profiler
	// installs one; plain runs leave it nil for speed. The Event is reused
	// across steps: hooks must copy out anything they keep past the call.
	// A hooked run always interprets (no trace replay).
	Hook func(*Event)
	// StoreHook, if non-nil, observes every architectural store (ST) in
	// retirement order, on both the fast and hooked paths. The differential
	// tester uses it to collect the store stream of traced runs, which have
	// no per-instruction Hook.
	StoreHook func(addr, val uint64)
	// ChargeFetch adds per-instruction L1-I fetch energy when true. The
	// paper's Table 4 breakdown separates loads/stores/non-mem; fetch is
	// charged so classic and amnesic executions are comparable.
	ChargeFetch bool
	// Trace configures the trace-reuse engine for the hook-free path. New
	// enables it with default tuning; zero it to force pure interpretation.
	Trace trace.Config
	// Engine, after a hook-free Run, is the trace engine the run used (nil
	// when tracing was disabled): counters for tests and diagnostics.
	Engine *trace.Engine
	// Watch, if non-nil, observes its PCs during a hook-free Run (see
	// exec.Watch); the compiler's slice validator rides the classic
	// baseline this way. A hooked run ignores it.
	Watch *exec.Watch
}

// New returns a core over fresh state with the given model and hierarchy.
func New(model *energy.Model, hier *mem.Hierarchy, m *mem.Memory) *Core {
	return &Core{Model: model, Hier: hier, Mem: m, ChargeFetch: true, Trace: trace.DefaultConfig()}
}

// ReadReg returns the register value, honoring the hardwired zero register.
func (c *Core) ReadReg(r isa.Reg) uint64 {
	if r == isa.R0 {
		return 0
	}
	return c.Regs[r]
}

// WriteReg writes a register, discarding writes to R0.
func (c *Core) WriteReg(r isa.Reg, v uint64) {
	if r != isa.R0 {
		c.Regs[r] = v
	}
}

// Run executes the program from PC 0 until HALT. It returns an error for
// malformed programs, amnesic opcodes (which only the amnesic machine
// executes), misaligned accesses, or budget exhaustion.
//
// When Hook is nil — every plain simulation; only the profiler installs a
// hook — Run executes on the shared dispatch core with trace reuse per the
// Trace config. Both paths dispatch over the pre-decoded program and are
// architecturally and energetically identical.
func (c *Core) Run(p *isa.Program) error {
	if err := p.Validate(); err != nil {
		return fmt.Errorf("cpu: %w", err)
	}
	max := c.MaxInstrs
	if max == 0 {
		max = DefaultMaxInstrs
	}
	c.PC = 0
	// The loops read registers without masking R0, relying on the
	// invariant that Regs[0] stays zero (writes are guarded).
	c.Regs[isa.R0] = 0
	if c.Hook == nil {
		env := exec.Env{
			Model:       c.Model,
			Hier:        c.Hier,
			Mem:         c.Mem,
			Regs:        &c.Regs,
			Acct:        &c.Acct,
			MaxInstrs:   max,
			ChargeFetch: c.ChargeFetch,
			Classic:     true,
			StoreHook:   c.StoreHook,
			Trace:       c.Trace,
			Watch:       c.Watch,
		}
		err := exec.Run(&env, p)
		c.PC = env.PC
		c.Engine = env.Engine
		return err
	}
	return c.runHooked(p, max)
}

// runHooked is the profiling interpreter loop: identical architectural and
// energy behaviour to the shared core, plus operand snapshots and one
// Event — reused across steps — delivered to the Hook per retired
// instruction (HALT excepted, matching the historical contract).
func (c *Core) runHooked(p *isa.Program, max uint64) error {
	d := p.Decoded()
	code := p.Code
	n := len(d.Kind)
	kinds, ops, cats := d.Kind, d.Op, d.Cat
	dsts, src1s, src2s, imms, targets := d.Dst, d.Src1, d.Src2, d.Imm, d.Target
	hier, l1, memory := c.Hier, c.Hier.L1, c.Mem
	acct := &c.Acct
	regs := &c.Regs
	ct := BuildCharges(c.Model)
	fetchE, fetchT := c.Model.FetchEnergy, c.Model.FetchLatency
	charge := c.ChargeFetch
	hook := c.Hook
	storeHook := c.StoreHook

	var ev Event
	pc := 0
	for {
		if pc < 0 || pc >= n {
			c.PC = pc
			return fmt.Errorf("cpu: pc %d out of range (program %q, %d instrs)", pc, p.Name, n)
		}
		if acct.Instrs >= max {
			c.PC = pc
			return fmt.Errorf("%w (%d)", ErrInstrBudget, max)
		}
		if charge {
			acct.EnergyNJ += fetchE
			acct.FetchNJ += fetchE
			acct.TimeNS += fetchT
		}
		// Pre-execution operand snapshot (Src1, Src2, old Dst).
		srcs := [3]uint64{regs[src1s[pc]], regs[src2s[pc]], regs[dsts[pc]]}
		switch kinds[pc] {
		case isa.KindCompute:
			dst := dsts[pc]
			v := isa.EvalComputeOp(ops[pc], imms[pc], srcs[0], srcs[1], srcs[2])
			if dst != 0 {
				regs[dst] = v
			}
			cat := cats[pc]
			e := ct.EPI[cat]
			acct.EnergyNJ += e
			acct.NonMemNJ += e
			acct.TimeNS += ct.Cycle
			acct.Instrs++
			acct.ByCategory[cat]++
			ev = Event{PC: pc, In: code[pc], SrcVals: srcs}
			hook(&ev)
			pc++
		case isa.KindLoad:
			addr := srcs[0] + uint64(imms[pc])
			if addr&7 != 0 {
				c.PC = pc
				return fmt.Errorf("cpu: pc %d (%s): load: %w", pc, code[pc], mem.CheckAligned(addr))
			}
			var level energy.Level
			if l1.ProbeHit(addr, false) {
				hier.Serviced[energy.L1]++
				level = energy.L1
			} else {
				res := hier.AccessMiss(addr, false)
				c.chargeWritebacks(res)
				level = res.Level
			}
			e := ct.LoadTot[level]
			acct.EnergyNJ += e
			acct.LoadNJ += e
			acct.TimeNS += ct.LoadLat[level]
			acct.Instrs++
			acct.Loads++
			acct.ByCategory[isa.CatLoad]++
			v := memory.Load(addr)
			if dst := dsts[pc]; dst != 0 {
				regs[dst] = v
			}
			ev = Event{PC: pc, In: code[pc], Addr: addr, Value: v, Level: level, SrcVals: srcs}
			hook(&ev)
			pc++
		case isa.KindStore:
			addr := srcs[0] + uint64(imms[pc])
			if addr&7 != 0 {
				c.PC = pc
				return fmt.Errorf("cpu: pc %d (%s): store: %w", pc, code[pc], mem.CheckAligned(addr))
			}
			var level energy.Level
			if l1.ProbeHit(addr, true) {
				hier.Serviced[energy.L1]++
				level = energy.L1
			} else {
				res := hier.AccessMiss(addr, true)
				c.chargeWritebacks(res)
				level = res.Level
			}
			e := ct.StoreTot[level]
			acct.EnergyNJ += e
			acct.StoreNJ += e
			acct.TimeNS += ct.StoreLat
			acct.Instrs++
			acct.Stores++
			acct.ByCategory[isa.CatStore]++
			v := srcs[1]
			memory.Store(addr, v)
			if storeHook != nil {
				storeHook(addr, v)
			}
			ev = Event{PC: pc, In: code[pc], Addr: addr, Value: v, Level: level, SrcVals: srcs}
			hook(&ev)
			pc++
		case isa.KindCondBr:
			e := ct.EPI[isa.CatBranch]
			acct.EnergyNJ += e
			acct.NonMemNJ += e
			acct.TimeNS += ct.Cycle
			acct.Instrs++
			acct.ByCategory[isa.CatBranch]++
			taken := isa.BranchTaken(ops[pc], srcs[0], srcs[1])
			ev = Event{PC: pc, In: code[pc], SrcVals: srcs}
			hook(&ev)
			if taken {
				pc = int(targets[pc])
			} else {
				pc++
			}
		case isa.KindJmp:
			e := ct.EPI[isa.CatBranch]
			acct.EnergyNJ += e
			acct.NonMemNJ += e
			acct.TimeNS += ct.Cycle
			acct.Instrs++
			acct.ByCategory[isa.CatBranch]++
			ev = Event{PC: pc, In: code[pc], SrcVals: srcs}
			hook(&ev)
			pc = int(targets[pc])
		case isa.KindNop:
			e := ct.EPI[isa.CatNop]
			acct.EnergyNJ += e
			acct.NonMemNJ += e
			acct.TimeNS += ct.Cycle
			acct.Instrs++
			acct.ByCategory[isa.CatNop]++
			ev = Event{PC: pc, In: code[pc], SrcVals: srcs}
			hook(&ev)
			pc++
		case isa.KindHalt:
			e := ct.EPI[isa.CatBranch]
			acct.EnergyNJ += e
			acct.NonMemNJ += e
			acct.TimeNS += ct.Cycle
			acct.Instrs++
			acct.ByCategory[isa.CatBranch]++
			c.PC = pc
			return nil
		case isa.KindRcmp, isa.KindRtn, isa.KindRec:
			c.PC = pc
			return fmt.Errorf("cpu: pc %d (%s): amnesic opcode %s on classic core", pc, code[pc], ops[pc])
		default:
			c.PC = pc
			return fmt.Errorf("cpu: pc %d (%s): unimplemented opcode %s", pc, code[pc], ops[pc])
		}
	}
}

func (c *Core) chargeWritebacks(res mem.AccessResult) {
	for i := 0; i < res.WritebackL2; i++ {
		c.Acct.AddWriteback(c.Model, energy.L2)
	}
	for i := 0; i < res.WritebackMem; i++ {
		c.Acct.AddWriteback(c.Model, energy.Mem)
	}
}

// Result summarizes a finished run for reporting.
type Result struct {
	Program  string
	Acct     energy.Account
	Serviced [energy.NumLevels]uint64
	Regs     [isa.NumRegs]uint64
}

// RunProgram is a convenience wrapper: run p on a fresh default-config core
// over the given initial memory, returning the result.
func RunProgram(model *energy.Model, p *isa.Program, m *mem.Memory) (*Result, error) {
	return RunProgramLimit(model, p, m, 0)
}

// RunProgramLimit is RunProgram with a dynamic-instruction budget
// (0 means DefaultMaxInstrs).
func RunProgramLimit(model *energy.Model, p *isa.Program, m *mem.Memory, maxInstrs uint64) (*Result, error) {
	core := New(model, mem.NewDefaultHierarchy(), m)
	core.MaxInstrs = maxInstrs
	if err := core.Run(p); err != nil {
		return nil, err
	}
	return core.Result(p), nil
}

// Result summarizes the core's finished run of p.
func (c *Core) Result(p *isa.Program) *Result {
	return &Result{Program: p.Name, Acct: c.Acct, Serviced: c.Hier.Serviced, Regs: c.Regs}
}
