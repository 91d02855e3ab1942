// Crash-point differential restart oracle: for seeded random programs and
// random crash points, a run killed mid-flight and restarted from its last
// checkpoint must be indistinguishable — bit-for-bit — from the run that
// never crashed. "Indistinguishable" covers the final register file and
// memory image, the spliced store stream an external observer would see
// (pre-crash prefix up to the checkpoint plus the resumed suffix), the
// final program counter, the full energy account, and the checkpoint
// engine's running totals, under every checkpoint policy. This is the
// checkpoint engine's analogue of the execution oracle in difftest.go:
// restart correctness is machine-checked, not argued.
package difftest

import (
	"errors"
	"fmt"
	"math/rand"

	"github.com/amnesiac-sim/amnesiac/internal/ckpt"
	"github.com/amnesiac-sim/amnesiac/internal/compiler"
	"github.com/amnesiac-sim/amnesiac/internal/cpu"
	"github.com/amnesiac-sim/amnesiac/internal/energy"
	"github.com/amnesiac-sim/amnesiac/internal/gen"
	"github.com/amnesiac-sim/amnesiac/internal/isa"
	"github.com/amnesiac-sim/amnesiac/internal/mem"
	"github.com/amnesiac-sim/amnesiac/internal/profile"
)

// CkptOptions configures one restart-oracle check. Start from
// DefaultCkptOptions.
type CkptOptions struct {
	Model    *energy.Model
	Gen      gen.Config
	Compiler compiler.Options
	// MaxInstrs bounds every execution.
	MaxInstrs uint64
	// Policies defaults to both checkpoint policies.
	Policies []ckpt.Policy
	// Crashes is the number of random crash points tried per (program,
	// policy) when CrashPoints is empty.
	Crashes int
	// CrashPoints, when non-empty, supplies explicit crash points instead
	// of random ones; each is clamped into [1, total) by modulo (the fuzz
	// target feeds raw values here).
	CrashPoints []uint64
	// RandSeed seeds the deterministic crash-point and interval derivation;
	// CheckCkptSeed sets it to the generator seed.
	RandSeed int64
	// Shrink minimizes failing programs before reporting (CheckCkptSeed).
	Shrink bool
	// TamperRestart corrupts every recomputed word at restart; non-zero
	// values must be caught (negative control).
	TamperRestart uint64
}

// DefaultCkptOptions returns the configuration the test suite and CI use.
func DefaultCkptOptions() CkptOptions {
	copts := compiler.DefaultOptions()
	copts.Mode = compiler.ModeOracleAll
	return CkptOptions{
		Model:     energy.Default(),
		Gen:       gen.DefaultConfig(),
		Compiler:  copts,
		MaxInstrs: 2_000_000,
		Policies:  []ckpt.Policy{ckpt.PolicyFull, ckpt.PolicyRecomp},
		Crashes:   3,
		Shrink:    true,
	}
}

// CheckCkptSeed generates the program for seed and runs the restart oracle
// over it. On divergence the returned *Divergence carries the seed, a
// restart-oracle replay hint, and (when opts.Shrink) a minimized program.
func CheckCkptSeed(seed int64, opts CkptOptions) error {
	prog, initial, err := gen.Generate(seed, opts.Gen)
	if err != nil {
		return err
	}
	opts.RandSeed = seed
	err = CheckCkpt(prog, initial, opts)
	var d *Divergence
	if errors.As(err, &d) {
		d.Seed = seed
		d.Replay = fmt.Sprintf("replay: go test ./internal/difftest -run TestCkptRestartOracle -difftest.ckptseed=%d", seed)
		if opts.Shrink {
			d.Program = ShrinkCkpt(prog, initial, opts)
			d.Initial = initial
		}
	}
	return err
}

// CheckCkpt runs the restart oracle on one program: an uninterrupted
// classic reference run, then per (policy, crash point) a crashed
// checkpointed run and a restart from the surviving checkpoint, requiring
// the splice to be bit-identical to the reference and the restarted
// engine's checkpoint Stats to equal an uninterrupted checkpointed run's.
// Every engine forks one sealed copy of initial and is released after
// its check; the image must end unchanged and holding no fork's
// reference. Infrastructure problems return plain errors; disagreements
// return *Divergence.
func CheckCkpt(prog *isa.Program, initial *mem.Memory, opts CkptOptions) error {
	if opts.Model == nil {
		return errors.New("difftest: ckpt: nil model")
	}
	if len(opts.Policies) == 0 {
		opts.Policies = []ckpt.Policy{ckpt.PolicyFull, ckpt.PolicyRecomp}
	}

	// Uninterrupted reference on the plain classic core — deliberately NOT
	// the checkpoint engine, so the oracle also proves interval-sliced
	// execution equals monolithic execution.
	ref := struct {
		regs   [isa.NumRegs]uint64
		pc     int
		acct   energy.Account
		mem    *mem.Memory
		stores []StoreEvent
	}{mem: initial.Clone()}
	core := cpu.New(opts.Model, mem.NewDefaultHierarchy(), ref.mem)
	core.MaxInstrs = opts.MaxInstrs
	core.StoreHook = func(a, v uint64) { ref.stores = append(ref.stores, StoreEvent{a, v}) }
	if err := core.Run(prog); err != nil {
		return fmt.Errorf("difftest: ckpt reference: %w", err)
	}
	ref.regs, ref.pc, ref.acct = core.Regs, core.PC, core.Acct

	total := ref.acct.Instrs
	if total < 2 {
		return nil // nowhere to crash
	}

	prof, err := profile.Collect(opts.Model, prog, initial)
	if err != nil {
		return fmt.Errorf("difftest: ckpt profile: %w", err)
	}
	ann, err := compiler.Compile(opts.Model, prog, prof, initial, opts.Compiler)
	if err != nil {
		return fmt.Errorf("difftest: ckpt compile: %w", err)
	}
	// The harness's checkpoint jobs fork the prepared image the same way.
	img := initial.Clone().Seal()

	rng := rand.New(rand.NewSource(opts.RandSeed ^ 0x636b7074)) // "ckpt"
	crashes := opts.CrashPoints
	if len(crashes) == 0 {
		n := opts.Crashes
		if n <= 0 {
			n = 3
		}
		crashes = make([]uint64, n)
		for i := range crashes {
			crashes[i] = uint64(rng.Int63())
		}
	}
	intervals := []uint64{total/10 + 1, total/4 + 1, total/2 + 1}
	// steady holds, per (policy, interval), the checkpoint Stats of an
	// uninterrupted checkpointed run, which every restart must end with.
	steady := map[[2]uint64]ckpt.Stats{}

	for _, raw := range crashes {
		crash := 1 + raw%(total-1)
		interval := intervals[rng.Intn(len(intervals))]
		for _, pol := range opts.Policies {
			stage := fmt.Sprintf("ckpt %s crash@%d/%d interval %d", pol, crash, total, interval)
			key := [2]uint64{uint64(pol), interval}
			if _, ok := steady[key]; !ok {
				e, err := ckpt.NewEngine(opts.Model, prog, img, ann, prof, ckpt.Config{
					Policy: pol, Interval: interval, MaxInstrs: opts.MaxInstrs,
				})
				if err != nil {
					return fmt.Errorf("difftest: %s: %w", stage, err)
				}
				_, err = e.Run()
				steady[key] = e.Stats
				e.Release()
				if err != nil {
					return fmt.Errorf("difftest: %s: uninterrupted run: %w", stage, err)
				}
			}
			d, err := checkOneRestart(prog, img, ann, prof, opts, pol, crash, interval, &ref, steady[key])
			if err != nil {
				return fmt.Errorf("difftest: %s: %w", stage, err)
			}
			if d != nil {
				d.Stage = stage
				d.Seed = -1
				return d
			}
		}
	}
	if !img.Mem().Equal(initial) {
		return &Divergence{Seed: -1, Stage: "ckpt image",
			Detail: fmt.Sprintf("checkpoint engines mutated the sealed base image at words %v", img.Mem().Diff(initial, 4))}
	}
	if refs := img.Refs(); refs != 1 {
		return &Divergence{Seed: -1, Stage: "ckpt image",
			Detail: fmt.Sprintf("image holds %d references after every engine was released, want 1", refs)}
	}
	return nil
}

func checkOneRestart(
	prog *isa.Program, img *mem.Image,
	ann *compiler.Annotated, prof *profile.Profile,
	opts CkptOptions, pol ckpt.Policy, crash, interval uint64,
	ref *struct {
		regs   [isa.NumRegs]uint64
		pc     int
		acct   energy.Account
		mem    *mem.Memory
		stores []StoreEvent
	},
	steady ckpt.Stats,
) (*Divergence, error) {
	var prefix []StoreEvent
	crashed, err := ckpt.NewEngine(opts.Model, prog, img, ann, prof, ckpt.Config{
		Policy: pol, Interval: interval, CrashAt: crash, MaxInstrs: opts.MaxInstrs,
		StoreHook: func(a, v uint64) { prefix = append(prefix, StoreEvent{a, v}) },
	})
	if err != nil {
		return nil, err
	}
	defer crashed.Release()
	res, err := crashed.Run()
	if err != nil {
		return nil, err
	}
	if !res.Crashed {
		return nil, fmt.Errorf("fault at %d did not fire (run ended at %d)", crash, res.Instrs)
	}

	// The pre-crash store stream must be a prefix of the reference's: the
	// crash may lose stores after the last checkpoint but can never have
	// invented or reordered any.
	if len(prefix) > len(ref.stores) {
		return &Divergence{Detail: fmt.Sprintf("crashed run emitted %d stores, reference only %d", len(prefix), len(ref.stores))}, nil
	}
	for i := range prefix {
		if prefix[i] != ref.stores[i] {
			return &Divergence{Detail: fmt.Sprintf("pre-crash store %d = %+v, reference %+v", i, prefix[i], ref.stores[i])}, nil
		}
	}

	ck := crashed.Checkpoints[len(crashed.Checkpoints)-1]
	if ck.Instrs >= crash {
		return nil, fmt.Errorf("surviving checkpoint at %d not before crash %d", ck.Instrs, crash)
	}

	var suffix []StoreEvent
	resumed, err := ckpt.NewEngine(opts.Model, prog, img, ann, prof, ckpt.Config{
		Policy: pol, Interval: interval, MaxInstrs: opts.MaxInstrs,
		TamperRestart: opts.TamperRestart,
		StoreHook:     func(a, v uint64) { suffix = append(suffix, StoreEvent{a, v}) },
	})
	if err != nil {
		return nil, err
	}
	defer resumed.Release()
	res2, err := resumed.Restart(ck)
	if err != nil {
		return nil, err
	}
	if !res2.Completed {
		return &Divergence{Detail: fmt.Sprintf("resumed run did not complete: %+v", res2)}, nil
	}

	if res2.Regs != ref.regs {
		for r := range res2.Regs {
			if res2.Regs[r] != ref.regs[r] {
				return &Divergence{Detail: fmt.Sprintf("R%d = %#x after restart, %#x uninterrupted", r, res2.Regs[r], ref.regs[r])}, nil
			}
		}
	}
	if res2.PC != ref.pc {
		return &Divergence{Detail: fmt.Sprintf("final pc %d after restart, %d uninterrupted", res2.PC, ref.pc)}, nil
	}
	if !resumed.Mem().Equal(ref.mem) {
		return &Divergence{Detail: fmt.Sprintf("memory diverges at words %v", resumed.Mem().Diff(ref.mem, 4))}, nil
	}
	if res2.Acct != ref.acct {
		return &Divergence{Detail: "energy account diverges: " + accountDiff(&res2.Acct, &ref.acct)}, nil
	}
	// The restarted engine resumes the crashed run's checkpoint totals, so
	// it must end with the uninterrupted run's, float sums included.
	if resumed.Stats != steady {
		return &Divergence{Detail: fmt.Sprintf("checkpoint stats after restart %+v, uninterrupted %+v", resumed.Stats, steady)}, nil
	}

	// Spliced store stream: checkpoint prefix + resumed suffix must equal
	// the uninterrupted stream exactly.
	if uint64(len(suffix)) != uint64(len(ref.stores))-ck.Stores {
		return &Divergence{Detail: fmt.Sprintf("resumed run emitted %d stores, want %d (checkpoint at store %d of %d)",
			len(suffix), uint64(len(ref.stores))-ck.Stores, ck.Stores, len(ref.stores))}, nil
	}
	for i, ev := range suffix {
		if want := ref.stores[ck.Stores+uint64(i)]; ev != want {
			return &Divergence{Detail: fmt.Sprintf("resumed store %d = %+v, reference %+v", i, ev, want)}, nil
		}
	}
	return nil, nil
}
