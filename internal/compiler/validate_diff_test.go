package compiler

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/amnesiac-sim/amnesiac/internal/energy"
	"github.com/amnesiac-sim/amnesiac/internal/gen"
	"github.com/amnesiac-sim/amnesiac/internal/isa"
	"github.com/amnesiac-sim/amnesiac/internal/mem"
	"github.com/amnesiac-sim/amnesiac/internal/profile"
	"github.com/amnesiac-sim/amnesiac/internal/rslice"
	"github.com/amnesiac-sim/amnesiac/internal/workloads"
)

// verdict is what validation decides for one program: the valid slices'
// load PCs with their input kinds, and the rejection reasons.
type verdict struct {
	Valid    map[int][]rslice.InputKind
	Rejected map[int]string
}

func kindsOf(s *rslice.Slice) []rslice.InputKind {
	kinds := make([]rslice.InputKind, len(s.Inputs))
	for i, in := range s.Inputs {
		kinds[i] = in.Kind
	}
	return kinds
}

// refVerdict validates the plan's candidates — a fresh set, since
// validation writes input kinds — with the reference validator.
func refVerdict(model *energy.Model, prog *isa.Program, prof *profile.Profile, initial *mem.Memory, opts Options) (verdict, error) {
	p, err := NewPlan(model, prog, prof, opts)
	if err != nil {
		return verdict{}, err
	}
	v := verdict{Valid: map[int][]rslice.InputKind{}, Rejected: map[int]string{}}
	if p.v == nil {
		return v, nil
	}
	var cands []*rslice.Slice
	for _, cs := range p.v.cands {
		cands = append(cands, cs.s)
	}
	feeders := make(map[int]map[int]bool)
	for st, loads := range prof.StoresConsumedBy {
		for ld := range loads {
			if feeders[ld] == nil {
				feeders[ld] = make(map[int]bool)
			}
			feeders[ld][st] = true
		}
	}
	valid, err := refValidate(prog, initial, cands, feeders, v.Rejected)
	if err != nil {
		return verdict{}, err
	}
	for _, s := range valid {
		v.Valid[s.LoadPC] = kindsOf(s)
	}
	return v, nil
}

// denseVerdict validates through the production path: a plan whose watch
// rides one classic run, emitted in oracle mode (every valid slice).
func denseVerdict(model *energy.Model, prog *isa.Program, prof *profile.Profile, initial *mem.Memory, opts Options) (verdict, error) {
	opts.Mode = ModeOracleAll
	ann, err := Compile(model, prog, prof, initial, opts)
	if err != nil {
		return verdict{}, err
	}
	v := verdict{Valid: map[int][]rslice.InputKind{}, Rejected: ann.Stats.RejectedDetail}
	for _, si := range ann.Slices {
		v.Valid[si.LoadPC] = kindsOf(si.Slice)
	}
	return v, nil
}

// checkValidatorsAgree asserts the dense validator reaches the reference's
// verdicts on one program: the same valid set, input kinds and rejection
// strings. It returns the number of valid and rejected candidates.
func checkValidatorsAgree(t *testing.T, name string, prog *isa.Program, initial *mem.Memory, opts Options) (valid, rejected int) {
	t.Helper()
	model := energy.Default()
	prof, err := profile.Collect(model, prog, initial)
	if err != nil {
		t.Fatalf("%s: profile: %v", name, err)
	}
	ref, err := refVerdict(model, prog, prof, initial, opts)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	got, err := denseVerdict(model, prog, prof, initial, opts)
	if err != nil {
		t.Fatalf("%s: dense: %v", name, err)
	}
	if !reflect.DeepEqual(ref, got) {
		t.Errorf("%s: verdicts differ\nreference: %+v\ndense:     %+v", name, ref, got)
	}
	return len(ref.Valid), len(ref.Rejected)
}

// requireBoth fails a corpus that never exercised one of the verdicts.
func requireBoth(t *testing.T, valid, rejected int) {
	t.Helper()
	t.Logf("%d valid, %d rejected candidates", valid, rejected)
	if valid == 0 || rejected == 0 {
		t.Errorf("corpus exercises too little: %d valid, %d rejected", valid, rejected)
	}
}

func TestValidatorMatchesReferenceWorkloads(t *testing.T) {
	var valid, rejected int
	for _, w := range workloads.All() {
		prog, initial := w.Build(0.05)
		v, r := checkValidatorsAgree(t, w.Name+"@0.05", prog, initial, DefaultOptions())
		valid, rejected = valid+v, rejected+r
	}
	requireBoth(t, valid, rejected)
}

func TestValidatorMatchesReferenceResponsive(t *testing.T) {
	if testing.Short() {
		t.Skip("reference validation of the responsive kernels at scale 0.3")
	}
	for _, w := range workloads.Responsive() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			prog, initial := w.Build(0.3)
			checkValidatorsAgree(t, w.Name+"@0.3", prog, initial, DefaultOptions())
		})
	}
}

// TestValidatorMatchesReferenceGen runs 300 generator seeds twice: under
// the evaluation options, and with the stability bar dropped to 0.5 so that
// slices built on unstable producers reach validation and fail it in every
// way it can reject.
func TestValidatorMatchesReferenceGen(t *testing.T) {
	loose := DefaultOptions()
	loose.Stability = 0.5
	for _, tc := range []struct {
		name string
		opts Options
	}{{"default", DefaultOptions()}, {"loose", loose}} {
		t.Run(tc.name, func(t *testing.T) {
			var valid, rejected int
			for seed := int64(0); seed < 300; seed++ {
				prog, initial, err := gen.Generate(seed, gen.DefaultConfig())
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				v, r := checkValidatorsAgree(t, fmt.Sprintf("gen seed %d", seed), prog, initial, tc.opts)
				valid, rejected = valid+v, rejected+r
			}
			requireBoth(t, valid, rejected)
		})
	}
}
