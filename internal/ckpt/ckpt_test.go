package ckpt

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"github.com/amnesiac-sim/amnesiac/internal/asm"
	"github.com/amnesiac-sim/amnesiac/internal/compiler"
	"github.com/amnesiac-sim/amnesiac/internal/cpu"
	"github.com/amnesiac-sim/amnesiac/internal/energy"
	"github.com/amnesiac-sim/amnesiac/internal/gen"
	"github.com/amnesiac-sim/amnesiac/internal/isa"
	"github.com/amnesiac-sim/amnesiac/internal/mem"
	"github.com/amnesiac-sim/amnesiac/internal/profile"
)

type storeEvent struct{ addr, val uint64 }

// reference is one uninterrupted classic run on a monolithic core.
type reference struct {
	regs   [isa.NumRegs]uint64
	pc     int
	acct   energy.Account
	mem    *mem.Memory
	stores []storeEvent
}

func runReference(t *testing.T, model *energy.Model, prog *isa.Program, initial *mem.Memory) *reference {
	t.Helper()
	ref := &reference{mem: initial.Clone()}
	core := cpu.New(model, mem.NewDefaultHierarchy(), ref.mem)
	core.StoreHook = func(a, v uint64) { ref.stores = append(ref.stores, storeEvent{a, v}) }
	if err := core.Run(prog); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	ref.regs, ref.pc, ref.acct = core.Regs, core.PC, core.Acct
	return ref
}

// prepare profiles and oracle-compiles a program.
func prepare(t *testing.T, model *energy.Model, prog *isa.Program, initial *mem.Memory) (*profile.Profile, *compiler.Annotated) {
	t.Helper()
	prof, err := profile.Collect(model, prog, initial)
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	copts := compiler.DefaultOptions()
	copts.Mode = compiler.ModeOracleAll
	ann, err := compiler.Compile(model, prog, prof, initial, copts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prof, ann
}

// recompProgram is a hand-built program with a guaranteed recomputable
// store: mem[base] holds ADD(r2,r2) with both the address register r1 and
// the leaf r2 live for the whole run, so every checkpoint past the store
// can omit the word under PolicyRecomp.
func recompProgram(t *testing.T) (*isa.Program, *mem.Memory) {
	t.Helper()
	const base = 0x10000
	b := asm.NewBuilder("ckpt-recomp")
	b.Li(1, base)
	b.Li(2, 7)
	b.Add(3, 2, 2)
	b.St(1, 0, 3)
	b.Li(4, 0)
	for i := 0; i < 20; i++ {
		b.Addi(4, 4, 1)
	}
	b.Ld(5, 1, 0)
	b.St(1, 8, 5)
	b.Halt()
	prog, err := b.Assemble()
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return prog, mem.NewMemory()
}

func checkAgainstReference(t *testing.T, label string, ref *reference, res *RunResult, m *mem.Memory, stores []storeEvent, prefix []storeEvent) {
	t.Helper()
	if !res.Completed {
		t.Fatalf("%s: resumed run did not complete: %+v", label, res)
	}
	if res.Regs != ref.regs {
		t.Errorf("%s: registers diverge", label)
	}
	if res.PC != ref.pc {
		t.Errorf("%s: final pc %d, want %d", label, res.PC, ref.pc)
	}
	if res.Acct != ref.acct {
		t.Errorf("%s: energy account diverges: got %+v want %+v", label, res.Acct, ref.acct)
	}
	if !m.Equal(ref.mem) {
		t.Errorf("%s: memory diverges at words %v", label, m.Diff(ref.mem, 4))
	}
	full := append(append([]storeEvent{}, prefix...), stores...)
	if len(full) != len(ref.stores) {
		t.Fatalf("%s: store stream length %d, want %d", label, len(full), len(ref.stores))
	}
	for i := range full {
		if full[i] != ref.stores[i] {
			t.Fatalf("%s: store %d = %+v, want %+v", label, i, full[i], ref.stores[i])
		}
	}
}

func TestParsePolicy(t *testing.T) {
	for i, label := range PolicyLabels {
		p, err := ParsePolicy(label)
		if err != nil || p != Policy(i) {
			t.Fatalf("ParsePolicy(%q) = %v, %v", label, p, err)
		}
		if p.String() != label {
			t.Fatalf("Policy(%d).String() = %q, want %q", i, p.String(), label)
		}
	}
	if _, err := ParsePolicy("nope"); err == nil {
		t.Fatal("ParsePolicy accepted unknown label")
	}
	if s := Policy(99).String(); s != "policy(99)" {
		t.Fatalf("bogus policy String() = %q", s)
	}
}

// TestChunkedMatchesMonolithic: interval-sliced execution with checkpoints
// must be bit-identical to one uninterrupted core run — registers, memory,
// energy account and store stream.
func TestChunkedMatchesMonolithic(t *testing.T) {
	model := energy.Default()
	for seed := int64(1); seed <= 5; seed++ {
		prog, initial, err := gen.Generate(seed, gen.DefaultConfig())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ref := runReference(t, model, prog, initial)
		prof, ann := prepare(t, model, prog, initial)
		img := initial.Clone().Seal()
		for _, pol := range []Policy{PolicyFull, PolicyRecomp} {
			var stores []storeEvent
			e, err := NewEngine(model, prog, img, ann, prof, Config{
				Policy:   pol,
				Interval: ref.acct.Instrs/7 + 1,
				KeepAll:  true,
				StoreHook: func(a, v uint64) {
					stores = append(stores, storeEvent{a, v})
				},
			})
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, pol, err)
			}
			res, err := e.Run()
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, pol, err)
			}
			checkAgainstReference(t, pol.String(), ref, res, e.Mem(), stores, nil)
			if e.Stats.Taken < 2 {
				t.Fatalf("seed %d %v: only %d checkpoints", seed, pol, e.Stats.Taken)
			}
			if e.Stats.SavedWords > e.Stats.FullWords {
				t.Fatalf("seed %d %v: saved %d > full %d", seed, pol, e.Stats.SavedWords, e.Stats.FullWords)
			}
		}
	}
}

// TestCrashRestart: kill the run at several crash points under both
// policies, restart from the surviving checkpoint on a fresh engine, and
// require the spliced result to be bit-identical to the uninterrupted run.
// Every engine runs on a fork of the sealed image: the image must come out
// unchanged and, once the engines are released, hold only its own
// reference.
func TestCrashRestart(t *testing.T) {
	model := energy.Default()
	for seed := int64(1); seed <= 3; seed++ {
		prog, initial, err := gen.Generate(seed, gen.DefaultConfig())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ref := runReference(t, model, prog, initial)
		prof, ann := prepare(t, model, prog, initial)
		img := initial.Clone().Seal()
		total := ref.acct.Instrs
		interval := total/5 + 1
		for _, frac := range []uint64{1, 3, 7, 9} {
			crash := total * frac / 10
			if crash == 0 {
				crash = 1
			}
			for _, pol := range []Policy{PolicyFull, PolicyRecomp} {
				var prefix []storeEvent
				e, err := NewEngine(model, prog, img, ann, prof, Config{
					Policy: pol, Interval: interval, CrashAt: crash,
					StoreHook: func(a, v uint64) { prefix = append(prefix, storeEvent{a, v}) },
				})
				if err != nil {
					t.Fatal(err)
				}
				res, err := e.Run()
				if err != nil {
					t.Fatalf("seed %d crash %d %v: %v", seed, crash, pol, err)
				}
				if !res.Crashed {
					t.Fatalf("seed %d crash %d %v: expected a crash, got %+v", seed, crash, pol, res)
				}
				ck := e.Checkpoints[len(e.Checkpoints)-1]
				prefix = prefix[:ck.Stores]

				var suffix []storeEvent
				e2, err := NewEngine(model, prog, img, ann, prof, Config{
					Policy: pol, Interval: interval,
					StoreHook: func(a, v uint64) { suffix = append(suffix, storeEvent{a, v}) },
				})
				if err != nil {
					t.Fatal(err)
				}
				res2, err := e2.Restart(ck)
				if err != nil {
					t.Fatalf("seed %d crash %d %v: restart: %v", seed, crash, pol, err)
				}
				if res2.Restore == nil || res2.Restore.Words != len(ck.Saved) {
					t.Fatalf("seed %d crash %d %v: restore stats %+v", seed, crash, pol, res2.Restore)
				}
				checkAgainstReference(t, pol.String(), ref, res2, e2.Mem(), suffix, prefix)
				if !e2.Mem().Forked() {
					t.Fatalf("seed %d crash %d %v: engine is not running on a fork", seed, crash, pol)
				}
				e.Release()
				e2.Release()
			}
		}
		if !img.Mem().Equal(initial) {
			t.Errorf("seed %d: checkpointed runs mutated the sealed image at %#x", seed, img.Mem().Diff(initial, 4))
		}
		if refs := img.Refs(); refs != 1 {
			t.Errorf("seed %d: image holds %d references after every engine was released, want 1", seed, refs)
		}
	}
}

// TestRestartContinuesCheckpoints: the crashed run's checkpoints up to the
// surviving one, followed by the restarted run's, are exactly the
// checkpoints of the run that never crashed — same numbering, instants,
// payloads and running totals — and the restarted engine ends with the
// uninterrupted engine's Stats. A crash on a checkpoint boundary fires
// before that checkpoint is taken, so the restart retakes it.
func TestRestartContinuesCheckpoints(t *testing.T) {
	model := energy.Default()
	for seed := int64(1); seed <= 3; seed++ {
		prog, initial, err := gen.Generate(seed, gen.DefaultConfig())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ref := runReference(t, model, prog, initial)
		prof, ann := prepare(t, model, prog, initial)
		img := initial.Clone().Seal()
		interval := ref.acct.Instrs/6 + 1
		for _, pol := range []Policy{PolicyFull, PolicyRecomp} {
			engine := func(crash uint64) *Engine {
				e, err := NewEngine(model, prog, img, ann, prof, Config{Policy: pol, Interval: interval, CrashAt: crash, KeepAll: true})
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			steady := engine(0)
			if _, err := steady.Run(); err != nil {
				t.Fatal(err)
			}
			for _, crash := range []uint64{1, ref.acct.Instrs / 2, 3 * interval} {
				label := fmt.Sprintf("seed %d %v crash %d", seed, pol, crash)
				crashed := engine(crash)
				if res, err := crashed.Run(); err != nil || !res.Crashed {
					t.Fatalf("%s: %+v, %v", label, res, err)
				}
				last := crashed.Checkpoints[len(crashed.Checkpoints)-1]
				resumed := engine(0)
				if _, err := resumed.Restart(last); err != nil {
					t.Fatalf("%s: restart: %v", label, err)
				}
				if resumed.Stats != steady.Stats {
					t.Errorf("%s: restarted stats %+v, uninterrupted %+v", label, resumed.Stats, steady.Stats)
				}
				all := append(append([]*Checkpoint{}, crashed.Checkpoints...), resumed.Checkpoints...)
				if len(all) != len(steady.Checkpoints) {
					t.Fatalf("%s: %d checkpoints, uninterrupted %d", label, len(all), len(steady.Checkpoints))
				}
				for k, ck := range all {
					want := steady.Checkpoints[k]
					if ck.Seq != k || ck.Instrs != want.Instrs || ck.Stats != want.Stats ||
						!slices.Equal(ck.Saved, want.Saved) || !slices.Equal(ck.Omitted, want.Omitted) {
						t.Errorf("%s: checkpoint %d (seq %d at %d) differs from the uninterrupted run's (seq %d at %d)",
							label, k, ck.Seq, ck.Instrs, want.Seq, want.Instrs)
					}
				}
			}
		}
	}
}

// TestRestartFromCheckpointZero: a crash before the first interval boundary
// restarts from the instruction-0 snapshot taken before execution.
func TestRestartFromCheckpointZero(t *testing.T) {
	model := energy.Default()
	prog, initial, err := gen.Generate(2, gen.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ref := runReference(t, model, prog, initial)
	prof, _ := prepare(t, model, prog, initial)
	img := initial.Clone().Seal()
	e, err := NewEngine(model, prog, img, nil, prof, Config{
		Policy: PolicyFull, Interval: ref.acct.Instrs + 100, CrashAt: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil || !res.Crashed {
		t.Fatalf("run: %+v, %v", res, err)
	}
	ck := e.Checkpoints[len(e.Checkpoints)-1]
	if ck.Instrs != 0 || ck.Stores != 0 {
		t.Fatalf("expected the t=0 checkpoint, got %+v", ck)
	}
	var suffix []storeEvent
	e2, err := NewEngine(model, prog, img, nil, prof, Config{
		Policy:    PolicyFull,
		StoreHook: func(a, v uint64) { suffix = append(suffix, storeEvent{a, v}) },
	})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := e2.Restart(ck)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, "full@0", ref, res2, e2.Mem(), suffix, nil)
}

// TestRecompOmitsSliceWord: the hand-built program's store is provably
// recomputable, so recomp checkpoints omit it, shrink below full, and the
// restart regenerates it exactly. A tampered recomputation must diverge.
func TestRecompOmitsSliceWord(t *testing.T) {
	model := energy.Default()
	prog, initial := recompProgram(t)
	ref := runReference(t, model, prog, initial)
	prof, ann := prepare(t, model, prog, initial)
	img := initial.Clone().Seal()

	run := func(tamper uint64) (*Engine, *RunResult, *Checkpoint, []storeEvent) {
		t.Helper()
		e, err := NewEngine(model, prog, img, ann, prof, Config{
			Policy: PolicyRecomp, Interval: 10, CrashAt: 25, KeepAll: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res, err := e.Run(); err != nil || !res.Crashed {
			t.Fatalf("run: %+v, %v", res, err)
		}
		ck := e.Checkpoints[len(e.Checkpoints)-1]
		if len(ck.Omitted) == 0 {
			t.Fatalf("checkpoint %d omitted nothing: %+v", ck.Seq, e.Stats)
		}
		var suffix []storeEvent
		e2, err := NewEngine(model, prog, img, ann, prof, Config{
			Policy: PolicyRecomp, Interval: 10, TamperRestart: tamper,
			StoreHook: func(a, v uint64) { suffix = append(suffix, storeEvent{a, v}) },
		})
		if err != nil {
			t.Fatal(err)
		}
		res2, err := e2.Restart(ck)
		if err != nil {
			t.Fatal(err)
		}
		return e2, res2, ck, suffix
	}

	e2, res2, ck, suffix := run(0)
	checkAgainstReference(t, "recomp", ref, res2, e2.Mem(), suffix, ref.stores[:ck.Stores])
	if res2.Restore.Recomputed == 0 || res2.Restore.RecompInstrs == 0 {
		t.Fatalf("restore did not recompute: %+v", res2.Restore)
	}

	// Payload accounting: recomp must be measurably below full.
	eFull, err := NewEngine(model, prog, img, ann, prof, Config{Policy: PolicyFull, Interval: 10, KeepAll: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eFull.Run(); err != nil {
		t.Fatal(err)
	}
	eRec, err := NewEngine(model, prog, img, ann, prof, Config{Policy: PolicyRecomp, Interval: 10, KeepAll: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eRec.Run(); err != nil {
		t.Fatal(err)
	}
	if eRec.Stats.SavedWords >= eFull.Stats.SavedWords {
		t.Fatalf("recomp saved %d words, full %d", eRec.Stats.SavedWords, eFull.Stats.SavedWords)
	}
	if eRec.Stats.OmittedRecomp == 0 {
		t.Fatalf("recomp stats: %+v", eRec.Stats)
	}
	if eRec.Stats.CkptEnergyNJ >= eFull.Stats.CkptEnergyNJ {
		t.Fatalf("recomp ckpt energy %.1f >= full %.1f", eRec.Stats.CkptEnergyNJ, eFull.Stats.CkptEnergyNJ)
	}

	// Negative control: a tampered recomputation must not reproduce the
	// reference state — this is what the difftest oracle relies on.
	e3, res3, _, _ := run(0xdead)
	if res3.Regs == ref.regs && e3.Mem().Equal(ref.mem) {
		t.Fatal("tampered restart still matched the reference")
	}
}

// TestLatestOnly: without KeepAll only the most recent checkpoint is
// retained.
func TestLatestOnly(t *testing.T) {
	model := energy.Default()
	prog, initial := recompProgram(t)
	prof, _ := prepare(t, model, prog, initial)
	img := initial.Clone().Seal()
	e, err := NewEngine(model, prog, img, nil, prof, Config{Policy: PolicyFull, Interval: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(e.Checkpoints) != 1 {
		t.Fatalf("kept %d checkpoints, want 1", len(e.Checkpoints))
	}
	if e.Stats.Taken < 3 {
		t.Fatalf("took %d checkpoints, want >= 3", e.Stats.Taken)
	}
	if e.Checkpoints[0].Seq != e.Stats.Taken-1 {
		t.Fatalf("kept checkpoint %d of %d", e.Checkpoints[0].Seq, e.Stats.Taken)
	}
}

func TestNewEngineErrors(t *testing.T) {
	model := energy.Default()
	prog, initial := recompProgram(t)
	prof, ann := prepare(t, model, prog, initial)
	img := initial.Clone().Seal()
	if _, err := NewEngine(nil, prog, img, ann, prof, Config{}); err == nil {
		t.Fatal("nil model accepted")
	}
	if _, err := NewEngine(model, prog, img, ann, nil, Config{}); err == nil {
		t.Fatal("nil profile accepted")
	}
	if _, err := NewEngine(model, prog, img, nil, prof, Config{Policy: PolicyRecomp}); err == nil {
		t.Fatal("recomp without annotation accepted")
	}
	if _, err := NewEngine(model, prog, img, ann, prof, Config{Policy: Policy(9)}); err == nil {
		t.Fatal("bogus policy accepted")
	}
	if _, err := NewEngine(model, prog, nil, ann, prof, Config{}); err == nil {
		t.Fatal("nil image accepted")
	}
	bad := &isa.Program{Name: "bad", Code: []isa.Instr{{Op: isa.Op(250)}}}
	if _, err := NewEngine(model, bad, img, ann, prof, Config{}); err == nil {
		t.Fatal("invalid program accepted")
	}
	if refs := img.Refs(); refs != 1 {
		t.Errorf("rejected engines left %d image references, want 1", refs)
	}
}

func TestEngineReuseAndBadRestart(t *testing.T) {
	model := energy.Default()
	prog, initial := recompProgram(t)
	prof, ann := prepare(t, model, prog, initial)
	img := initial.Clone().Seal()
	e, err := NewEngine(model, prog, img, ann, prof, Config{Policy: PolicyFull})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err == nil {
		t.Fatal("second Run on the same engine accepted")
	}
	ck := e.Checkpoints[0]
	if _, err := e.Restart(ck); err == nil {
		t.Fatal("Restart on a used engine accepted")
	}

	// A checkpoint referencing an unknown recipe slice must fail loudly.
	e2, err := NewEngine(model, prog, img, ann, prof, Config{Policy: PolicyRecomp})
	if err != nil {
		t.Fatal(err)
	}
	broken := *ck
	broken.Omitted = []Omission{{Addr: 0x10000, SliceID: 777}}
	if _, err := e2.Restart(&broken); err == nil {
		t.Fatal("unknown slice ID accepted at restart")
	}
}

// TestBudgetError: exceeding MaxInstrs is a real error, not a crash or a
// completion.
func TestBudgetError(t *testing.T) {
	model := energy.Default()
	prog, initial := recompProgram(t)
	prof, _ := prepare(t, model, prog, initial)
	img := initial.Clone().Seal()
	e, err := NewEngine(model, prog, img, nil, prof, Config{Policy: PolicyFull, MaxInstrs: 5, Interval: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err == nil || !errors.Is(err, cpu.ErrInstrBudget) {
		t.Fatalf("want budget error, got %v", err)
	}
}
