package harness_test

import (
	"reflect"
	"testing"

	"github.com/amnesiac-sim/amnesiac/internal/compiler"
	"github.com/amnesiac-sim/amnesiac/internal/cpu"
	"github.com/amnesiac-sim/amnesiac/internal/harness"
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
// state every fork is derived from.
func TestArtifactsInitialPristine(t *testing.T) {
	cfg := smallConfig()
	cfg.Cache = harness.NewArtifactCache()
	w, err := workloads.Get("is")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := harness.Run(cfg, w); err != nil {
		t.Fatal(err)
	}
	art, err := cfg.Cache.Get(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	_, fresh := w.Build(cfg.Scale)
	if !art.Initial.Equal(fresh) {
		t.Errorf("Artifacts.Initial diverged from a fresh build at %#x", art.Initial.Diff(fresh, 4))
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
