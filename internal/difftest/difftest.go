// Package difftest is the differential-execution oracle: it runs one
// program through three independent implementations of the architecture —
// the flat reference stepper (internal/ref) with no cache hierarchy, the
// classic hierarchy-coupled core, and the amnesic machine under every
// evaluation policy — and demands bit-identical final register files,
// memory images, and store streams. Amnesic execution is a
// semantics-preserving energy optimization (paper §3), so ANY divergence is
// a bug in the transformation or the machine, never an accepted
// approximation.
//
// Programs come from the seeded generator in internal/gen, so a failure is
// fully described by its seed. CheckSeed shrinks failing programs by
// NOP-substitution (length-preserving, so branch targets survive) and
// reports a replayable *Divergence.
//
// Two metamorphic invariant families ride along with every check:
//
//   - cache hierarchy: the hierarchy is a pure timing/energy model, so the
//     classic core's architectural state must equal the flat replay;
//   - energy accounting: every account satisfies Account.CheckConsistency,
//     and the classic account must equal, field for field, an independent
//     count of the reference's retired-instruction stream over a fresh
//     hierarchy priced under the same model.
package difftest

import (
	"errors"
	"fmt"
	"reflect"
	"strings"

	"github.com/amnesiac-sim/amnesiac/internal/amnesic"
	"github.com/amnesiac-sim/amnesiac/internal/asm"
	"github.com/amnesiac-sim/amnesiac/internal/compiler"
	"github.com/amnesiac-sim/amnesiac/internal/cpu"
	"github.com/amnesiac-sim/amnesiac/internal/energy"
	"github.com/amnesiac-sim/amnesiac/internal/gen"
	"github.com/amnesiac-sim/amnesiac/internal/isa"
	"github.com/amnesiac-sim/amnesiac/internal/mem"
	"github.com/amnesiac-sim/amnesiac/internal/policy"
	"github.com/amnesiac-sim/amnesiac/internal/profile"
	"github.com/amnesiac-sim/amnesiac/internal/ref"
	"github.com/amnesiac-sim/amnesiac/internal/trace"
	"github.com/amnesiac-sim/amnesiac/internal/uarch"
)

// PolicyLabels names the five evaluation policies of paper §5.1, in report
// order. Each one is exercised per checked program.
var PolicyLabels = []string{"Oracle", "C-Oracle", "Compiler", "FLC", "LLC"}

// Options configures one differential check. Start from DefaultOptions.
type Options struct {
	Model    *energy.Model
	Gen      gen.Config
	Compiler compiler.Options
	Uarch    uarch.Config
	// MaxInstrs bounds every execution (reference, classic, amnesic).
	MaxInstrs uint64
	// Policies defaults to PolicyLabels.
	Policies []string
	// TamperRTN is forwarded to every amnesic machine; non-zero corrupts
	// RTN value copies so tests can prove the oracle catches real bugs.
	TamperRTN uint64
	// Shrink minimizes failing programs before reporting (CheckSeed only).
	Shrink bool
	// TraceForce additionally runs every amnesic policy with trace reuse
	// forced on (threshold 1, so every loop records on its first back-edge,
	// including loops crossing REC/RCMP, which record as aux trace entries)
	// and demands the traced run match the untraced one bit-for-bit:
	// registers, memory, store stream, the full energy account, and the
	// amnesic runtime counters. The baseline machines run explicitly
	// untraced so this arm really compares replay against pure
	// interpretation. The classic core gets the equivalent check on every
	// Check call regardless of this flag (it is cheap); TraceForce roughly
	// doubles amnesic work, so the stress job opts in via -difftest.trace.
	TraceForce bool
	// CowForce additionally reruns the classic core and every amnesic
	// policy on a copy-on-write fork of the initial image, sealed with the
	// profile's written set, and demands the forked run match the cloned
	// one bit-for-bit — registers, memory, store stream, and the full
	// energy account — with the sealed base image left pristine and every
	// fork reference released. The classic core runs once more on a fork
	// of an image sealed without the written set, so both ways a fork
	// grows its windows are checked. It is the COW parity oracle: any
	// write-barrier or overlay bug shows up as a divergence. Roughly
	// doubles work, so CI opts in via -difftest.cow.
	CowForce bool
}

// DefaultOptions returns the configuration the test suite and CI use.
func DefaultOptions() Options {
	return Options{
		Model:     energy.Default(),
		Gen:       gen.DefaultConfig(),
		Compiler:  compiler.DefaultOptions(),
		Uarch:     uarch.DefaultConfig(),
		MaxInstrs: 2_000_000,
		Policies:  PolicyLabels,
		Shrink:    true,
	}
}

// StoreEvent is one architectural store in retirement order.
type StoreEvent struct {
	Addr, Val uint64
}

// Divergence reports a failed differential check: the two implementations
// disagreed, or an internal invariant broke. It is an error; infrastructure
// problems (bad generator config, etc.) are returned as plain errors
// instead, so errors.As distinguishes "bug found" from "could not test".
type Divergence struct {
	// Seed replays the failure via gen.Generate; -1 when the program did
	// not come from the generator.
	Seed int64
	// Stage names the comparison that failed (e.g. "policy FLC").
	Stage string
	// Detail describes the first observed mismatch.
	Detail string
	// Program is the offending program, minimized when shrinking ran.
	Program *isa.Program
	// Initial is the program's initial memory image.
	Initial *mem.Memory
	// Replay, when non-empty, overrides the default replay hint line (the
	// restart oracle points at its own test and flag).
	Replay string
}

func (d *Divergence) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "difftest: divergence at stage %q: %s", d.Stage, d.Detail)
	if d.Program != nil {
		live := 0
		for _, in := range d.Program.Code {
			if in.Op != isa.NOP {
				live++
			}
		}
		fmt.Fprintf(&sb, "\nminimized program (%d live of %d instructions):\n%s",
			live, len(d.Program.Code), asm.Format(d.Program))
	}
	switch {
	case d.Replay != "":
		sb.WriteString(d.Replay)
	case d.Seed >= 0:
		fmt.Fprintf(&sb, "replay: go test ./internal/difftest -run TestDiffOracle -difftest.seed=%d", d.Seed)
	}
	return sb.String()
}

// CheckSeed generates the program for seed and differentially checks it.
// On divergence the returned *Divergence carries the seed and (when
// opts.Shrink) a minimized program.
func CheckSeed(seed int64, opts Options) error {
	prog, initial, err := gen.Generate(seed, opts.Gen)
	if err != nil {
		return err
	}
	err = Check(prog, initial, opts)
	var d *Divergence
	if errors.As(err, &d) {
		d.Seed = seed
		if opts.Shrink {
			d.Program = Shrink(prog, initial, opts)
		}
	}
	return err
}

// Check runs the full differential pipeline over one program: flat
// reference, classic core, profile, one watched classic run validating the
// compiler's slices, the probabilistic and oracle binaries emitted from
// it, then the amnesic machine under each policy. The first mismatch is
// returned as a *Divergence.
func Check(prog *isa.Program, initial *mem.Memory, opts Options) error {
	if opts.Model == nil || opts.MaxInstrs == 0 {
		return fmt.Errorf("difftest: incomplete options (start from DefaultOptions)")
	}
	policies := opts.Policies
	if len(policies) == 0 {
		policies = PolicyLabels
	}
	diverge := func(stage, format string, args ...any) *Divergence {
		return &Divergence{
			Seed: -1, Stage: stage, Detail: fmt.Sprintf(format, args...),
			Program: prog, Initial: initial,
		}
	}

	want, err := runReference(opts.Model, prog, initial, opts.MaxInstrs)
	if err != nil {
		return fmt.Errorf("difftest: reference: %w", err)
	}

	// Classic, interpreted: trace reuse off, so the traced arm below
	// compares replay against genuine interpretation.
	core := cpu.New(opts.Model, mem.NewDefaultHierarchy(), initial.Clone())
	core.MaxInstrs = opts.MaxInstrs
	core.Trace = trace.Config{}
	var classicStores []StoreEvent
	core.StoreHook = collectStores(&classicStores)
	if err := core.Run(prog); err != nil {
		// The reference completed, so the identical program must complete
		// on the classic core too.
		return diverge("classic execution", "reference halted but classic core failed: %v", err)
	}
	if d := compareState("classic-vs-reference", "flat-memory replay", want, core.Regs, core.Mem, classicStores, prog, initial); d != nil {
		return d
	}
	if err := core.Acct.CheckConsistency(); err != nil {
		return diverge("classic energy account", "%v", err)
	}
	if err := checkClassicAccount(&core.Acct, core.Hier.Serviced, want); err != nil {
		return diverge("classic energy account", "%v", err)
	}

	// Classic with trace reuse forced on (threshold 1: every loop records on
	// its first back-edge and replays from the second). Replay must be
	// indistinguishable from interpretation: same final registers, memory,
	// store stream, and — because replay charges every instruction in the
	// interpreter's exact order — an energy account equal bit-for-bit to the
	// interpreted run's.
	traced := cpu.New(opts.Model, mem.NewDefaultHierarchy(), initial.Clone())
	traced.MaxInstrs = opts.MaxInstrs
	traced.Trace = trace.Config{Enable: true, Threshold: 1}
	var tracedStores []StoreEvent
	traced.StoreHook = collectStores(&tracedStores)
	if err := traced.Run(prog); err != nil {
		return diverge("classic traced", "interpreted run halted but traced run failed: %v", err)
	}
	if d := compareState("classic traced", "flat-memory replay", want, traced.Regs, traced.Mem, tracedStores, prog, initial); d != nil {
		return d
	}
	if traced.Acct != core.Acct {
		return diverge("classic traced", "traced energy account differs from interpreted: %s",
			accountDiff(&traced.Acct, &core.Acct))
	}

	prof, err := profile.CollectLimit(opts.Model, prog, initial, opts.MaxInstrs)
	if err != nil {
		return diverge("profile", "profiling a program the reference executed cleanly failed: %v", err)
	}

	// COW parity: the same classic run on a fork of the sealed image must
	// be indistinguishable from the clone-based run above. The image is
	// sealed with the profile's written set, as the harness's is, so the
	// forks size their windows from it; the classic run repeats on a fork
	// of an image sealed without it, whose windows grow by doubling.
	var img, unsized *mem.Image
	if opts.CowForce {
		img, unsized = initial.Clone().Seal(prof.Written...), initial.Clone().Seal()
		for _, fork := range []struct {
			stage string
			img   *mem.Image
		}{{"classic cow", img}, {"classic cow unsized", unsized}} {
			cow := cpu.New(opts.Model, mem.NewDefaultHierarchy(), fork.img.Fork())
			cow.MaxInstrs = opts.MaxInstrs
			var cowStores []StoreEvent
			cow.StoreHook = collectStores(&cowStores)
			if err := cow.Run(prog); err != nil {
				return diverge(fork.stage, "cloned run halted but forked run failed: %v", err)
			}
			if d := compareState(fork.stage, "flat-memory replay", want, cow.Regs, cow.Mem, cowStores, prog, initial); d != nil {
				return d
			}
			if cow.Acct != core.Acct {
				return diverge(fork.stage, "forked energy account differs from cloned: %s",
					accountDiff(&cow.Acct, &core.Acct))
			}
			cow.Mem.Release()
		}
	}

	plan, err := compiler.NewPlan(opts.Model, prog, prof, opts.Compiler)
	if err != nil {
		return diverge("compile", "planning failed: %v", err)
	}

	// Classic under the plan's validation watch, with trace reuse forced
	// on: one watched run validates the slices for both binaries, as the
	// harness's baseline does. Watched PCs interpret while every other loop
	// records and replays, and the run must be indistinguishable from the
	// interpreted one — state, store stream, and energy account bit for bit.
	watched := cpu.New(opts.Model, mem.NewDefaultHierarchy(), initial.Clone())
	watched.MaxInstrs = opts.MaxInstrs
	watched.Trace = trace.Config{Enable: true, Threshold: 1}
	watched.Watch = plan.Watch()
	var watchedStores []StoreEvent
	watched.StoreHook = collectStores(&watchedStores)
	if err := watched.Run(prog); err != nil {
		return diverge("classic watched", "interpreted run halted but watched run failed: %v", err)
	}
	if d := compareState("classic watched", "flat-memory replay", want, watched.Regs, watched.Mem, watchedStores, prog, initial); d != nil {
		return d
	}
	if watched.Acct != core.Acct {
		return diverge("classic watched", "watched energy account differs from interpreted: %s",
			accountDiff(&watched.Acct, &core.Acct))
	}
	ann, err := plan.Emit(opts.Compiler.Mode)
	if err != nil {
		return diverge("compile", "probabilistic compile failed: %v", err)
	}
	oracleAnn, err := plan.Emit(compiler.ModeOracleAll)
	if err != nil {
		return diverge("compile", "oracle compile failed: %v", err)
	}

	for _, label := range policies {
		bin, kind := policyBinary(label, ann, oracleAnn)
		m, err := amnesic.New(opts.Model, bin, initial.Clone(), policy.New(kind), opts.Uarch)
		if err != nil {
			return diverge("policy "+label, "machine construction failed: %v", err)
		}
		m.MaxInstrs = opts.MaxInstrs
		m.TamperRTN = opts.TamperRTN
		// The baseline arm interprets purely (amnesic machines default to
		// tracing on) so the TraceForce arm below compares replay against
		// genuine interpretation.
		m.Trace = trace.Config{}
		var stores []StoreEvent
		m.StoreHook = collectStores(&stores)
		if err := m.Run(); err != nil {
			return diverge("policy "+label, "amnesic run failed where classic succeeded: %v", err)
		}
		if d := compareState("policy "+label, "classic baseline", want, m.Regs, m.Mem, stores, prog, initial); d != nil {
			return d
		}
		if err := m.Acct.CheckConsistency(); err != nil {
			return diverge("policy "+label+" energy account", "%v", err)
		}
		if st := m.Stat; st.RcmpTotal != st.RcmpRecomputed+st.RcmpLoaded {
			return diverge("policy "+label, "RCMP accounting: %d total != %d recomputed + %d loaded",
				st.RcmpTotal, st.RcmpRecomputed, st.RcmpLoaded)
		}
		if opts.CowForce {
			// Same policy on a fork of the sealed image: architectural state,
			// store stream, energy account, and runtime counters must match
			// the clone-based machine bit for bit.
			cm, err := amnesic.New(opts.Model, bin, img.Fork(), policy.New(kind), opts.Uarch)
			if err != nil {
				return diverge("policy "+label+" cow", "machine construction failed: %v", err)
			}
			cm.MaxInstrs = opts.MaxInstrs
			cm.TamperRTN = opts.TamperRTN
			cm.Trace = trace.Config{} // match the untraced baseline arm exactly
			var cowStores []StoreEvent
			cm.StoreHook = collectStores(&cowStores)
			if err := cm.Run(); err != nil {
				return diverge("policy "+label+" cow", "cloned run succeeded but forked run failed: %v", err)
			}
			if d := compareState("policy "+label+" cow", "classic baseline", want, cm.Regs, cm.Mem, cowStores, prog, initial); d != nil {
				return d
			}
			if len(cowStores) != len(stores) {
				return diverge("policy "+label+" cow", "store stream has %d events, cloned has %d",
					len(cowStores), len(stores))
			}
			if cm.Acct != m.Acct {
				return diverge("policy "+label+" cow", "forked energy account differs from cloned: %s",
					accountDiff(&cm.Acct, &m.Acct))
			}
			if cm.Stat.RcmpTotal != m.Stat.RcmpTotal || cm.Stat.RcmpRecomputed != m.Stat.RcmpRecomputed ||
				cm.Stat.RecExecuted != m.Stat.RecExecuted || cm.Stat.NOPsSkipped != m.Stat.NOPsSkipped {
				return diverge("policy "+label+" cow",
					"runtime counters diverge: rcmp %d/%d recomputed %d/%d rec %d/%d nops %d/%d (forked/cloned)",
					cm.Stat.RcmpTotal, m.Stat.RcmpTotal, cm.Stat.RcmpRecomputed, m.Stat.RcmpRecomputed,
					cm.Stat.RecExecuted, m.Stat.RecExecuted, cm.Stat.NOPsSkipped, m.Stat.NOPsSkipped)
			}
			cm.Mem.Release()
		}
		if !opts.TraceForce {
			continue
		}
		// Same policy with trace reuse forced on: the traced machine must be
		// bit-identical to the untraced one in architectural state, store
		// stream, energy account, and the amnesic runtime counters.
		tm, err := amnesic.New(opts.Model, bin, initial.Clone(), policy.New(kind), opts.Uarch)
		if err != nil {
			return diverge("policy "+label+" traced", "machine construction failed: %v", err)
		}
		tm.MaxInstrs = opts.MaxInstrs
		tm.TamperRTN = opts.TamperRTN
		tm.Trace = trace.Config{Enable: true, Threshold: 1}
		var tracedStores []StoreEvent
		tm.StoreHook = collectStores(&tracedStores)
		if err := tm.Run(); err != nil {
			return diverge("policy "+label+" traced", "untraced run succeeded but traced run failed: %v", err)
		}
		if d := compareState("policy "+label+" traced", "classic baseline", want, tm.Regs, tm.Mem, tracedStores, prog, initial); d != nil {
			return d
		}
		if len(tracedStores) != len(stores) {
			return diverge("policy "+label+" traced", "store stream has %d events, untraced has %d",
				len(tracedStores), len(stores))
		}
		if tm.Acct != m.Acct {
			return diverge("policy "+label+" traced", "traced energy account differs from untraced: %s",
				accountDiff(&tm.Acct, &m.Acct))
		}
		if tm.Stat.RcmpTotal != m.Stat.RcmpTotal || tm.Stat.RcmpRecomputed != m.Stat.RcmpRecomputed ||
			tm.Stat.RecExecuted != m.Stat.RecExecuted || tm.Stat.NOPsSkipped != m.Stat.NOPsSkipped {
			return diverge("policy "+label+" traced",
				"runtime counters diverge: rcmp %d/%d recomputed %d/%d rec %d/%d nops %d/%d (traced/untraced)",
				tm.Stat.RcmpTotal, m.Stat.RcmpTotal, tm.Stat.RcmpRecomputed, m.Stat.RcmpRecomputed,
				tm.Stat.RecExecuted, m.Stat.RecExecuted, tm.Stat.NOPsSkipped, m.Stat.NOPsSkipped)
		}
	}
	for _, im := range []*mem.Image{img, unsized} {
		if im == nil {
			continue
		}
		if !im.Mem().Equal(initial) {
			return diverge("cow base", "forked runs mutated the sealed base image at words %v",
				im.Mem().Diff(initial, 4))
		}
		if refs := im.Refs(); refs != 1 {
			return diverge("cow base", "image holds %d references after all forks released, want 1", refs)
		}
	}
	return nil
}

// accountDiff names the first differing energy.Account field, in
// declaration order — event counts before the energy and time priced from
// them — for divergence reports (the accounts are expected bit-identical,
// so any difference is an accounting bug). It walks the struct by
// reflection, so every field is named, including ones added later.
func accountDiff(got, want *energy.Account) string {
	g, w := reflect.ValueOf(*got), reflect.ValueOf(*want)
	for i := 0; i < g.NumField(); i++ {
		gf, wf := g.Field(i).Interface(), w.Field(i).Interface()
		if gf == wf {
			continue
		}
		name := g.Type().Field(i).Name
		if _, ok := gf.(float64); ok {
			return fmt.Sprintf("%s %.17g != %.17g", name, gf, wf)
		}
		return fmt.Sprintf("%s %v != %v", name, gf, wf)
	}
	return "accounts are equal"
}

// policyBinary maps a policy label to the binary it executes and its
// runtime decision kind, mirroring the evaluation harness (paper §5.1).
func policyBinary(label string, ann, oracleAnn *compiler.Annotated) (*compiler.Annotated, policy.Kind) {
	switch label {
	case "Oracle":
		return oracleAnn, policy.Exact
	case "C-Oracle":
		return ann, policy.Exact
	case "FLC":
		return ann, policy.FLC
	case "LLC":
		return ann, policy.LLC
	default: // "Compiler"
		return ann, policy.Compiler
	}
}

// reference is the flat stepper's run: final architectural state and store
// stream, plus the classic account and serviced-level counts taken from its
// retired-instruction stream.
type reference struct {
	Regs     [isa.NumRegs]uint64
	Mem      *mem.Memory
	Stores   []StoreEvent
	Acct     energy.Account
	Serviced [energy.NumLevels]uint64
}

// runReference runs p over a clone of initial on the reference stepper and
// counts each retired instruction as the classic core must, but through
// energy.Account's own count methods and a fresh default hierarchy: one
// L1-I fetch, then the category, or the load/store at its servicing level
// and any dirty-victim writebacks the access caused. The account is priced
// once, after the run.
func runReference(model *energy.Model, p *isa.Program, initial *mem.Memory, max uint64) (*reference, error) {
	r := &reference{Mem: initial.Clone()}
	hier := mem.NewDefaultHierarchy()
	a := &r.Acct
	access := func(addr uint64, write bool) energy.Level {
		res := hier.Access(addr, write)
		a.AddWritebacks(res.WritebackL2, res.WritebackMem)
		return res.Level
	}
	regs, err := ref.Run(p, r.Mem, max, func(s *ref.Step) {
		a.Fetches++
		switch s.In.Op {
		case isa.LD:
			a.AddLoad(access(s.Addr, false))
		case isa.ST:
			a.AddStore(access(s.Addr, true))
			r.Stores = append(r.Stores, StoreEvent{s.Addr, s.Value})
		default:
			a.AddInstr(isa.CategoryOf(s.In.Op))
		}
	})
	if err != nil {
		return nil, err
	}
	a.Price(model)
	r.Regs, r.Serviced = regs, hier.Serviced
	return r, nil
}

// collectStores returns a StoreHook appending to *dst.
func collectStores(dst *[]StoreEvent) func(addr, val uint64) {
	return func(addr, val uint64) { *dst = append(*dst, StoreEvent{addr, val}) }
}

// compareState checks final registers, memory image, and store stream
// against the reference, returning a *Divergence naming the first mismatch.
func compareState(stage, against string, want *reference, regs [isa.NumRegs]uint64, memory *mem.Memory, stores []StoreEvent, prog *isa.Program, initial *mem.Memory) *Divergence {
	diverge := func(format string, args ...any) *Divergence {
		return &Divergence{
			Seed: -1, Stage: stage,
			Detail:  fmt.Sprintf("vs %s: ", against) + fmt.Sprintf(format, args...),
			Program: prog, Initial: initial,
		}
	}
	for r := 0; r < isa.NumRegs; r++ {
		if regs[r] != want.Regs[r] {
			return diverge("r%d = %#x, want %#x", r, regs[r], want.Regs[r])
		}
	}
	if !memory.Equal(want.Mem) {
		addrs := memory.Diff(want.Mem, 4)
		parts := make([]string, 0, len(addrs))
		for _, a := range addrs {
			parts = append(parts, fmt.Sprintf("[%#x] = %#x, want %#x", a, memory.Load(a), want.Mem.Load(a)))
		}
		return diverge("memory differs: %s", strings.Join(parts, "; "))
	}
	if len(stores) != len(want.Stores) {
		return diverge("store stream has %d events, want %d", len(stores), len(want.Stores))
	}
	for i := range stores {
		if stores[i] != want.Stores[i] {
			return diverge("store #%d is [%#x] <- %#x, want [%#x] <- %#x",
				i, stores[i].Addr, stores[i].Val, want.Stores[i].Addr, want.Stores[i].Val)
		}
	}
	return nil
}

// checkClassicAccount compares the interpreted classic run's account and
// serviced-level counts against the reference's. Both accounts price their
// counts under the same model in the same order, so they must be equal in
// every field, energy and time included.
func checkClassicAccount(got *energy.Account, serviced [energy.NumLevels]uint64, want *reference) error {
	if serviced != want.Serviced {
		return fmt.Errorf("serviced levels %v, reference hierarchy %v", serviced, want.Serviced)
	}
	if *got != want.Acct {
		return fmt.Errorf("account differs from the reference's: %s", accountDiff(got, &want.Acct))
	}
	return nil
}
