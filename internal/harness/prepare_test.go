package harness_test

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/amnesiac-sim/amnesiac/internal/compiler"
	"github.com/amnesiac-sim/amnesiac/internal/cpu"
	"github.com/amnesiac-sim/amnesiac/internal/gen"
	"github.com/amnesiac-sim/amnesiac/internal/harness"
	"github.com/amnesiac-sim/amnesiac/internal/isa"
	"github.com/amnesiac-sim/amnesiac/internal/mem"
	"github.com/amnesiac-sim/amnesiac/internal/profile"
	"github.com/amnesiac-sim/amnesiac/internal/workloads"
)

// TestPrepareParity pins the two-pass prepare stage to the stage-by-stage
// calls it fuses: the profile equals profile.Collect, Ann and OracleAnn —
// emitted from the one validation that rode the baseline — deep-equal
// per-mode compiler.Compile, and Classic deep-equals an unwatched
// cpu.RunProgramLimit on a fork of the same image.
func TestPrepareParity(t *testing.T) {
	cfg := harness.DefaultConfig()
	cfg.Scale = 0.1
	cfg.Cache = harness.NewArtifactCache()
	var slices int
	for _, w := range workloads.Responsive() {
		art, err := cfg.Cache.Get(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := profile.Collect(cfg.Model, art.Prog, art.Initial)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(art.Profile, prof) {
			t.Errorf("%s: prepared profile differs from profile.Collect", w.Name)
		}
		for _, c := range []struct {
			mode compiler.Mode
			got  *compiler.Annotated
		}{{cfg.Opts.Mode, art.Ann}, {compiler.ModeOracleAll, art.OracleAnn}} {
			opts := cfg.Opts
			opts.Mode = c.mode
			want, err := compiler.Compile(cfg.Model, art.Prog, prof, art.Initial, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(c.got, want) {
				t.Errorf("%s: prepared %s binary differs from compiler.Compile", w.Name, c.mode)
			}
			slices += len(c.got.Slices)
		}
		fm := art.Image.Fork()
		want, err := cpu.RunProgramLimit(cfg.Model, art.Prog, fm, cfg.MaxInstrs)
		fm.Release()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(art.Classic, want) {
			t.Errorf("%s: watched classic baseline differs from an unwatched run:\n%+v\n%+v", w.Name, art.Classic, want)
		}
	}
	if slices == 0 {
		t.Error("no workload produced a slice; the parity check is vacuous")
	}
}

// TestArtifactsInitialPristine locks in the scheduler fix: the prepare
// stage no longer hands its only copy of the initial memory to the classic
// baseline. After a full suite (classic + five policy runs), the cached
// Artifacts.Initial must still equal a freshly built initial image, and it
// must be sealed — writes through it panic rather than corrupting the
// state every fork is derived from. The kernel stores only outside the
// sealed image's flat windows, so a few generated programs, which store
// into their arena, also check that no fork writes through to its base.
func TestArtifactsInitialPristine(t *testing.T) {
	cfg := smallConfig()
	cfg.Cache = harness.NewArtifactCache()
	w, err := workloads.Get("is")
	if err != nil {
		t.Fatal(err)
	}
	art := runPristine(t, cfg, w)
	for seed := int64(1); seed <= 6; seed++ {
		runPristine(t, cfg, genWorkload(t, seed))
	}
	if art.Initial != art.Image.Mem() {
		t.Error("Artifacts.Initial is not the sealed image memory")
	}
	defer func() {
		if recover() == nil {
			t.Error("store through sealed Artifacts.Initial did not panic")
		}
	}()
	art.Initial.Store(0, 1)
}

// runPristine runs the suite on w and checks that the cached sealed image
// still equals a fresh build.
func runPristine(t *testing.T, cfg harness.Config, w *workloads.Workload) *harness.Artifacts {
	t.Helper()
	if _, err := harness.Run(cfg, w); err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	art, err := cfg.Cache.Get(cfg, w)
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	if _, fresh := w.Build(cfg.Scale); !art.Initial.Equal(fresh) {
		t.Errorf("%s: Artifacts.Initial diverged from a fresh build at %#x", w.Name, art.Initial.Diff(fresh, 4))
	}
	return art
}

// genWorkload wraps the generated program of seed as a transient workload
// named from its seed; its Build ignores the scale.
func genWorkload(t *testing.T, seed int64) *workloads.Workload {
	t.Helper()
	if _, _, err := gen.Generate(seed, gen.DefaultConfig()); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return &workloads.Workload{
		Name: fmt.Sprintf("gen-%d", seed),
		Build: func(float64) (*isa.Program, *mem.Memory) {
			p, m, err := gen.Generate(seed, gen.DefaultConfig())
			if err != nil {
				panic(err) // checked above; Generate is deterministic
			}
			return p, m
		},
	}
}
