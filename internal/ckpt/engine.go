package ckpt

import (
	"errors"
	"fmt"
	"slices"

	"github.com/amnesiac-sim/amnesiac/internal/compiler"
	"github.com/amnesiac-sim/amnesiac/internal/energy"
	"github.com/amnesiac-sim/amnesiac/internal/exec"
	"github.com/amnesiac-sim/amnesiac/internal/isa"
	"github.com/amnesiac-sim/amnesiac/internal/mem"
	"github.com/amnesiac-sim/amnesiac/internal/profile"
	"github.com/amnesiac-sim/amnesiac/internal/trace"
)

// Config parameterizes one Engine.
type Config struct {
	Policy Policy
	// Interval is the checkpoint period in dynamic instructions
	// (0 = DefaultInterval).
	Interval uint64
	// MaxInstrs bounds the whole run (0 = exec.DefaultMaxInstrs).
	MaxInstrs uint64
	// CrashAt, when non-zero, injects a fault at that dynamic instruction:
	// Run returns with Crashed=true and the engine's live state is dead —
	// only Checkpoints survive for a Restart on a fresh engine.
	CrashAt uint64
	// StoreHook observes every architectural store in retirement order.
	StoreHook func(addr, val uint64)
	// KeepAll retains every checkpoint (experiments, oracle); by default
	// only the latest survives, like a real two-slot checkpoint area.
	KeepAll bool
	// TamperRestart, when non-zero, XORs into every slice-recomputed word
	// at restart. It exists for the differential restart oracle's negative
	// control: a non-zero value must be caught as a divergence.
	TamperRestart uint64
}

// Engine drives one checkpointed execution of a classic program. Use one
// engine per run: NewEngine → Run (crash or complete), then NewEngine →
// Restart on a fresh engine to resume from a surviving checkpoint, and
// Release each engine when done with it.
type Engine struct {
	cfg      Config
	model    *energy.Model
	prog     *isa.Program
	base     *mem.Memory           // the sealed initial image
	prof     *profile.Profile      // its Written list is the store footprint
	slices   []*compiler.SliceInfo // hist-free recomputation recipes
	byID     map[int]*compiler.SliceInfo
	interval uint64

	// Live machine state.
	mem    *mem.Memory
	hier   *mem.Hierarchy
	regs   [isa.NumRegs]uint64
	acct   energy.Account
	pc     int
	stores uint64
	ran    bool

	scratch []uint64  // slice-body value buffer, reused across recipes
	saved   []WordVal // payload buffer sized to the footprint; each checkpoint keeps an exact-size copy

	// Checkpoints taken so far (latest last; length 1 unless KeepAll).
	Checkpoints []*Checkpoint
	Stats       Stats
}

// RunResult summarizes how a Run or Restart ended.
type RunResult struct {
	// Completed: the program halted. Crashed: the injected CrashAt fault
	// fired. Exactly one is set on a nil-error return.
	Completed bool
	Crashed   bool
	PC        int
	Instrs    uint64
	// Stores is the architectural store count at the end of the run.
	Stores uint64
	Regs   [isa.NumRegs]uint64
	Acct   energy.Account
	// Restore is non-nil when this run resumed from a checkpoint.
	Restore *RestoreStats
}

// NewEngine validates the program and prepares a checkpointed run over a
// sealed initial image: the sealed memory is the read-only base (slice
// recipes and untouched-word elision read it directly) and the live
// machine state is a copy-on-write fork of it, so constructing an engine
// copies nothing. The fork holds a reference on img until Release. ann
// may be nil for PolicyFull; PolicyRecomp requires compiled slices (use
// compiler.ModeOracleAll for maximum coverage). prof supplies the store
// footprint that defines the payload domain.
func NewEngine(model *energy.Model, prog *isa.Program, img *mem.Image, ann *compiler.Annotated, prof *profile.Profile, cfg Config) (*Engine, error) {
	if model == nil || prog == nil || img == nil || prof == nil {
		return nil, errors.New("ckpt: model, program, image and profile are required")
	}
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	if cfg.Policy >= numPolicies {
		return nil, fmt.Errorf("ckpt: unknown policy %d", cfg.Policy)
	}
	if cfg.Policy == PolicyRecomp && ann == nil {
		return nil, errors.New("ckpt: recomp policy requires a compiled annotation")
	}
	e := &Engine{
		cfg:      cfg,
		model:    model,
		prog:     prog,
		base:     img.Mem(),
		prof:     prof,
		interval: cfg.Interval,
		mem:      img.Fork(),
		hier:     mem.NewDefaultHierarchy(),
	}
	if e.interval == 0 {
		e.interval = DefaultInterval
	}
	if ann != nil {
		e.byID = make(map[int]*compiler.SliceInfo)
		for _, si := range ann.Slices {
			if histFree(si) {
				e.slices = append(e.slices, si)
				e.byID[si.ID] = si
			}
		}
	}
	return e, nil
}

// histFree reports whether every operand of every body instruction resolves
// without the Hist table: such a slice can replay at an arbitrary
// checkpoint boundary from the register file and read-only memory alone.
func histFree(si *compiler.SliceInfo) bool {
	if len(si.Body) == 0 {
		return false
	}
	for i := range si.Body {
		for _, src := range si.Body[i].Srcs {
			if src.Kind == compiler.SrcHist {
				return false
			}
		}
	}
	return true
}

// Mem exposes the engine's live memory (final state after a completed run).
func (e *Engine) Mem() *mem.Memory { return e.mem }

// Release drops the engine's reference on its image and clears its live
// memory. Call it once Mem has been read; Checkpoints and Stats stay
// readable, but the engine must not run again.
func (e *Engine) Release() { e.mem.Release() }

// Run executes the program from the start, checkpointing every interval,
// until it halts or the injected fault fires. A checkpoint is taken at
// instruction 0 before execution so a crash inside the first interval is
// still restartable.
func (e *Engine) Run() (*RunResult, error) {
	if e.ran {
		return nil, errors.New("ckpt: engine already ran; use a fresh engine")
	}
	e.ran = true
	e.takeCheckpoint()
	return e.resume(nil)
}

// Restart reconstructs machine state from ck on a fresh engine and resumes
// execution: saved words are applied over the base image, omitted words are
// regenerated by their slices, and registers, energy account, cache
// hierarchy, program counter, store count and checkpoint Stats restore to
// the snapshot. The resumed run continues checkpointing on the same
// interval and numbering, so its checkpoints are the ones the uninterrupted
// run takes after ck, and its final Stats equal the uninterrupted run's
// field for field.
func (e *Engine) Restart(ck *Checkpoint) (*RunResult, error) {
	if e.ran {
		return nil, errors.New("ckpt: engine already ran; use a fresh engine")
	}
	e.ran = true
	rs := &RestoreStats{}
	rdE, rdT := e.model.ReadEnergy[energy.Mem], e.model.Latency[energy.Mem]
	// Slice recipes read the pristine base image — the same reads the
	// snapshot's verification performed — so the regenerated values match
	// the verified ones bit-for-bit no matter what Saved holds.
	for _, om := range ck.Omitted {
		si := e.byID[om.SliceID]
		if si == nil {
			return nil, fmt.Errorf("ckpt: restart: no slice %d for omitted word %#x", om.SliceID, om.Addr)
		}
		v, ok := e.evalRecipe(si, &ck.Regs)
		if !ok {
			return nil, fmt.Errorf("ckpt: restart: slice %d failed to recompute word %#x", om.SliceID, om.Addr)
		}
		e.mem.Store(om.Addr, v^e.cfg.TamperRestart)
		rs.Recomputed++
		rs.RecompInstrs += len(si.Body)
		e.chargeRecipe(rs, si)
	}
	for _, wv := range ck.Saved {
		e.mem.Store(wv.Addr, wv.Val)
	}
	rs.Words = len(ck.Saved)
	restored := float64(len(ck.Saved) + isa.NumRegs)
	rs.EnergyNJ += restored * rdE
	rs.TimeNS += restored * rdT

	e.regs = ck.Regs
	e.acct = ck.Acct
	e.hier = ck.Hier.Clone()
	e.pc = ck.PC
	e.stores = ck.Stores
	e.Stats = ck.Stats
	return e.resume(rs)
}

// resume runs interval-sized segments from the engine's current state.
func (e *Engine) resume(rs *RestoreStats) (*RunResult, error) {
	hook := func(addr, val uint64) {
		e.stores++
		if e.cfg.StoreHook != nil {
			e.cfg.StoreHook(addr, val)
		}
	}
	next := e.acct.Instrs + e.interval
	for {
		env := exec.Env{
			Model: e.model, Hier: e.hier, Mem: e.mem, Regs: &e.regs, Acct: &e.acct,
			MaxInstrs: e.cfg.MaxInstrs,
			StoreHook: hook, Trace: trace.DefaultConfig(),
			StartPC: e.pc, StopAt: next, CrashAt: e.cfg.CrashAt,
		}
		err := exec.Run(&env, e.prog)
		e.pc = env.PC
		if err != nil {
			if errors.Is(err, exec.ErrCrash) {
				res := e.result(rs)
				res.Crashed = true
				return res, nil
			}
			return nil, err
		}
		if !env.Stopped {
			res := e.result(rs)
			res.Completed = true
			return res, nil
		}
		e.takeCheckpoint()
		next += e.interval
	}
}

func (e *Engine) result(rs *RestoreStats) *RunResult {
	return &RunResult{
		PC:     e.pc,
		Instrs: e.acct.Instrs,
		Stores: e.stores,
		Regs:   e.regs,
		Acct:   e.acct,

		Restore: rs,
	}
}

// runWords bounds how many consecutive footprint words a checkpoint reads
// from memory at once.
const runWords = 512

// takeCheckpoint snapshots the live state under the configured policy. It
// walks the footprint once in ascending order, merging in the sorted list
// of words planOmissions dropped, and reads each run of consecutive
// footprint words from the live and base memories in bulk
// (Memory.ReadWords).
func (e *Engine) takeCheckpoint() {
	ck := &Checkpoint{
		Seq:    e.Stats.Taken,
		PC:     e.pc,
		Instrs: e.acct.Instrs,
		Stores: e.stores,
		Regs:   e.regs,
		Acct:   e.acct,
		Hier:   e.hier.Clone(),
	}
	written := e.prof.Written
	recomp := e.cfg.Policy == PolicyRecomp
	var omit []uint64
	if recomp {
		omit = e.planOmissions(ck)
	}
	if cap(e.saved) < len(written) {
		e.saved = make([]WordVal, 0, len(written))
	}
	saved := e.saved[:0]
	var live, orig [runWords]uint64
	for i := 0; i < len(written); {
		w, n := written[i], 1
		for n < runWords && i+n < len(written) && written[i+n] == w+uint64(n) {
			n++
		}
		e.mem.ReadWords(w<<3, live[:n])
		if recomp {
			e.base.ReadWords(w<<3, orig[:n])
		}
		for k, cur := range live[:n] {
			// Every omitted word is a footprint word, so the two
			// ascending lists meet exactly.
			if len(omit) > 0 && omit[0] == w+uint64(k) {
				omit = omit[1:]
				continue
			}
			if recomp && cur == orig[k] {
				ck.OmittedUntouched++
				continue
			}
			saved = append(saved, WordVal{Addr: (w + uint64(k)) << 3, Val: cur})
		}
		i += n
	}
	ck.Saved = append([]WordVal(nil), saved...)
	payload := float64(ck.PayloadWords())
	ck.CostNJ = payload * e.model.WriteEnergy[energy.Mem]
	ck.CostNS = payload * e.model.Latency[energy.Mem]

	e.Stats.Taken++
	e.Stats.SavedWords += uint64(len(ck.Saved))
	e.Stats.FullWords += uint64(len(written))
	e.Stats.OmittedRecomp += uint64(len(ck.Omitted))
	e.Stats.OmittedUntouched += uint64(ck.OmittedUntouched)
	e.Stats.CkptEnergyNJ += ck.CostNJ
	e.Stats.CkptTimeNS += ck.CostNS
	ck.Stats = e.Stats

	if !e.cfg.KeepAll {
		e.Checkpoints = e.Checkpoints[:0]
	}
	e.Checkpoints = append(e.Checkpoints, ck)
}

// planOmissions verifies, per hist-free slice, that evaluating its body
// against the snapshot's register file and the read-only base image
// reproduces the current value of the footprint word the slice's load
// addresses. On a match the word is dropped from the payload and the slice
// ID recorded as its restart recipe. Verification at snapshot time is what
// makes restart exact by construction: the restart path replays the
// identical evaluation against the identical inputs. It returns the
// omitted words in ascending order.
func (e *Engine) planOmissions(ck *Checkpoint) []uint64 {
	var omit []uint64
	for _, si := range e.slices {
		ld := si.Slice.Load
		addr := e.regs[ld.Src1] + uint64(ld.Imm)
		if addr%8 != 0 || e.prof.ReadOnlyAddr(addr) || slices.Contains(omit, addr>>3) {
			continue
		}
		v, ok := e.evalRecipe(si, &e.regs)
		if !ok || v != e.mem.Load(addr) {
			continue
		}
		omit = append(omit, addr>>3)
		ck.Omitted = append(ck.Omitted, Omission{Addr: addr, SliceID: si.ID})
	}
	slices.Sort(omit)
	return omit
}

// evalRecipe executes a hist-free slice body leaves-to-root against the
// given register file, with body loads served by the pristine base image.
// It mirrors the amnesic machine's traverse but carries no energy model —
// the engine charges checkpoint/restore costs separately — and it rejects
// anything that cannot replay deterministically at restart.
func (e *Engine) evalRecipe(si *compiler.SliceInfo, regs *[isa.NumRegs]uint64) (uint64, bool) {
	if cap(e.scratch) < len(si.Body) {
		e.scratch = make([]uint64, len(si.Body))
	}
	vals := e.scratch[:len(si.Body)]
	for idx := range si.Body {
		bi := &si.Body[idx]
		var ops [3]uint64
		for slot := 0; slot < 3; slot++ {
			src := bi.Srcs[slot]
			switch src.Kind {
			case compiler.SrcNone, compiler.SrcZero:
				ops[slot] = 0
			case compiler.SrcSFile:
				ops[slot] = vals[src.BodyIdx]
			case compiler.SrcLive:
				ops[slot] = regs[src.Reg]
			case compiler.SrcHist:
				return 0, false
			}
		}
		if bi.In.Op == isa.LD {
			if !bi.ReadOnlyLoad {
				return 0, false
			}
			addr := ops[0] + uint64(bi.In.Imm)
			if mem.CheckAligned(addr) != nil {
				return 0, false
			}
			vals[idx] = e.base.Load(addr)
		} else {
			vals[idx] = isa.EvalCompute(bi.In, ops[0], ops[1], ops[2])
		}
	}
	return vals[len(vals)-1], true
}

// chargeRecipe adds one recipe evaluation's modeled cost to the restore
// account: per-instruction energy and a cycle per body instruction, with
// body loads charged as cold memory-level accesses (restart caches start
// from the snapshot, but the recovery path runs before the pipeline).
func (e *Engine) chargeRecipe(rs *RestoreStats, si *compiler.SliceInfo) {
	m := e.model
	for i := range si.Body {
		in := si.Body[i].In
		if in.Op == isa.LD {
			rs.EnergyNJ += m.InstrEnergy(isa.CatLoad) + m.LoadEnergy(energy.Mem)
			rs.TimeNS += m.LoadLatency(energy.Mem)
		} else {
			rs.EnergyNJ += m.InstrEnergy(isa.CategoryOf(in.Op))
			rs.TimeNS += m.CycleNS()
		}
	}
}
