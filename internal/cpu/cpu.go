// Package cpu implements the classic (non-amnesic) in-order core: the
// baseline execution model every amnesic policy is compared against. The
// core executes an isa.Program over a mem.Hierarchy + mem.Memory, counting
// its events into an energy.Account priced under the core's Model.
//
// Timing model (paper §4): one cycle per non-memory instruction at the
// Table 3 frequency; loads stall for the round-trip latency of the level
// that services them; stores retire at L1-D speed (write-back hierarchy).
//
// The core runs on the shared dispatch core (internal/exec), which also
// hosts the trace-reuse engine: hot loops are recorded once and replayed
// as fused superblocks (see internal/trace). Tracing is on by default —
// replay is bit-identical to interpretation in both architectural state
// and energy accounting — and can be tuned or disabled through the Trace
// field. Per-instruction observation is the reference stepper's job
// (internal/ref); a run observes stores through StoreHook and a sparse PC
// set through Watch, and a watched run replays its loops as an unwatched
// one does.
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
	// StoreHook, if non-nil, observes every architectural store (ST) in
	// retirement order. The differential tester collects store streams
	// with it.
	StoreHook func(addr, val uint64)
	// Trace configures the trace-reuse engine. New enables it with default
	// tuning; zero it to force pure interpretation.
	Trace trace.Config
	// Engine, after Run, is the trace engine the run used (nil when tracing
	// was disabled): counters for tests and diagnostics.
	Engine *trace.Engine
	// Watch, if non-nil, observes its PCs during Run (see exec.Watch); the
	// compiler's slice validator rides the classic baseline this way.
	Watch *exec.Watch
}

// New returns a core over fresh state with the given model and hierarchy.
func New(model *energy.Model, hier *mem.Hierarchy, m *mem.Memory) *Core {
	return &Core{Model: model, Hier: hier, Mem: m, Trace: trace.DefaultConfig()}
}

// Run executes the program from PC 0 until HALT on the shared dispatch
// core, with trace reuse per the Trace config. It returns an error for
// malformed programs, amnesic opcodes (which only the amnesic machine
// executes), misaligned accesses, or budget exhaustion.
func (c *Core) Run(p *isa.Program) error {
	if err := p.Validate(); err != nil {
		return fmt.Errorf("cpu: %w", err)
	}
	max := c.MaxInstrs
	if max == 0 {
		max = DefaultMaxInstrs
	}
	// The shared core reads registers without masking R0, relying on the
	// invariant that Regs[0] stays zero (writes are guarded).
	c.Regs[isa.R0] = 0
	env := exec.Env{
		Model:     c.Model,
		Hier:      c.Hier,
		Mem:       c.Mem,
		Regs:      &c.Regs,
		Acct:      &c.Acct,
		MaxInstrs: max,
		StoreHook: c.StoreHook,
		Trace:     c.Trace,
		Watch:     c.Watch,
	}
	err := exec.Run(&env, p)
	c.PC = env.PC
	c.Engine = env.Engine
	return err
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
