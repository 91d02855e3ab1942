package compiler_test

import (
	"reflect"
	"testing"

	"github.com/amnesiac-sim/amnesiac/internal/compiler"
	"github.com/amnesiac-sim/amnesiac/internal/cpu"
	"github.com/amnesiac-sim/amnesiac/internal/energy"
	"github.com/amnesiac-sim/amnesiac/internal/gen"
	"github.com/amnesiac-sim/amnesiac/internal/isa"
	"github.com/amnesiac-sim/amnesiac/internal/mem"
	"github.com/amnesiac-sim/amnesiac/internal/profile"
)

// FuzzCompilerValidate profiles and compiles a fuzzed generator seed in
// both modes, asserting the pass never errors on a valid terminating
// program and that its output is structurally sound: the annotated binary
// validates, and every emitted RCMP names a resolvable slice. It also
// asserts that one plan, validated by a single watched classic run, emits
// both modes deep-equal to per-mode Compile.
func FuzzCompilerValidate(f *testing.F) {
	f.Add(int64(0))
	f.Add(int64(7))
	f.Add(int64(-12345))
	model := energy.Default()
	f.Fuzz(func(t *testing.T, seed int64) {
		prog, initial, err := gen.Generate(seed, gen.DefaultConfig())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		prof, err := profile.Collect(model, prog, initial)
		if err != nil {
			t.Fatalf("seed %d: profile: %v", seed, err)
		}
		plan, err := compiler.NewPlan(model, prog, prof, compiler.DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: plan: %v", seed, err)
		}
		core := cpu.New(model, mem.NewDefaultHierarchy(), initial.Clone())
		core.Watch = plan.Watch()
		if err := core.Run(prog); err != nil {
			t.Fatalf("seed %d: watched run: %v", seed, err)
		}
		for _, mode := range []compiler.Mode{compiler.ModeProbabilistic, compiler.ModeOracleAll} {
			opts := compiler.DefaultOptions()
			opts.Mode = mode
			ann, err := compiler.Compile(model, prog, prof, initial, opts)
			if err != nil {
				t.Fatalf("seed %d: %s compile: %v", seed, mode, err)
			}
			if err := ann.Prog.Validate(); err != nil {
				t.Fatalf("seed %d: %s binary invalid: %v", seed, mode, err)
			}
			if len(ann.Prog.Code) < len(prog.Code) {
				t.Fatalf("seed %d: %s binary shrank from %d to %d instructions",
					seed, mode, len(prog.Code), len(ann.Prog.Code))
			}
			for pc, in := range ann.Prog.Code {
				if in.Op == isa.RCMP && ann.SliceByID(in.SliceID) == nil {
					t.Fatalf("seed %d: %s: RCMP at pc %d names unknown slice %d",
						seed, mode, pc, in.SliceID)
				}
			}
			planned, err := plan.Emit(mode)
			if err != nil {
				t.Fatalf("seed %d: %s emit: %v", seed, mode, err)
			}
			if !reflect.DeepEqual(planned, ann) {
				t.Fatalf("seed %d: %s: plan emit differs from Compile", seed, mode)
			}
		}
	})
}
