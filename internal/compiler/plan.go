package compiler

import (
	"fmt"
	"maps"

	"github.com/amnesiac-sim/amnesiac/internal/energy"
	"github.com/amnesiac-sim/amnesiac/internal/exec"
	"github.com/amnesiac-sim/amnesiac/internal/isa"
	"github.com/amnesiac-sim/amnesiac/internal/profile"
	"github.com/amnesiac-sim/amnesiac/internal/rslice"
)

// Plan is the mode-independent half of the pass: the candidate slices built
// from the profile and the validator that checks them. The validator
// observes one classic run of the program through Watch; Emit then turns
// its verdicts into the binary of any mode, as often as needed. A Plan is
// not safe for concurrent use.
type Plan struct {
	b *builder
	// stats holds the mode-independent counters; Emit adds the rest.
	stats Stats
	v     *validator // nil without candidates
	valid []*rslice.Slice
	done  bool
	// shared is the one binary every mode emits once no valid slice is
	// cost-rejected: then both modes select every valid slice.
	shared *Annotated
}

// NewPlan builds the candidate slice of every profiled load. opts.Mode is
// ignored: the mode is chosen per Emit.
func NewPlan(model *energy.Model, prog *isa.Program, prof *profile.Profile, opts Options) (*Plan, error) {
	if opts.MaxSliceLen <= 0 || opts.MaxHeight <= 0 {
		return nil, fmt.Errorf("compiler: non-positive slice caps %+v", opts)
	}
	p := &Plan{b: &builder{model: model, prog: prog, prof: prof, opts: opts}}

	var candidates []*rslice.Slice
	for _, pc := range prof.SortedLoadPCs() {
		p.stats.LoadsSeen++
		sl, reason := p.b.build(pc)
		switch reason {
		case rejectNone:
			candidates = append(candidates, sl)
		case rejectNoProducer:
			p.stats.RejectedNoProducer++
		case rejectUnstable:
			p.stats.RejectedUnstable++
		}
	}
	if len(candidates) > 0 {
		p.v = newValidator(prog, candidates, prof.StoresConsumedBy)
	}
	return p, nil
}

// Watch returns the validation watch to install on one classic run of the
// plan's program over its initial memory (exec.Env.Watch, cpu.Core.Watch),
// or nil when there is nothing to validate. Emit may be called once that
// run has finished without error.
func (p *Plan) Watch() *exec.Watch {
	if p.v == nil {
		return nil
	}
	return &exec.Watch{PCs: p.v.pcs, Observe: p.v.observe}
}

// Emit selects the validated slices for mode and emits the annotated
// binary. Each call works on its own copy of the slices, so one plan
// serves every mode. When the probabilistic selection rejects no valid
// slice on cost, the two modes select the same slices: Emit then returns
// one shared binary for both, whichever mode is emitted first, so callers
// can tell that the modes coincide by pointer equality. Emitting from a
// plan whose watch never observed a run rejects every candidate as never
// executed.
func (p *Plan) Emit(mode Mode) (*Annotated, error) {
	if !p.done {
		p.done = true
		p.stats.RejectedDetail = make(map[int]string)
		if p.v != nil {
			p.valid = p.v.verdicts(p.stats.RejectedDetail)
			p.stats.RejectedInvalid = len(p.v.cands) - len(p.valid)
		}
		p.stats.SlicesBuilt = len(p.valid)
	}
	if p.shared != nil {
		return p.shared, nil
	}
	stats := p.stats
	stats.RejectedDetail = maps.Clone(p.stats.RejectedDetail)

	// Selection: final Erc uses post-validation input kinds (live inputs
	// no longer pay Hist reads).
	b := p.b
	var selected []*rslice.Slice
	costRejected := 0
	for _, sl := range p.valid {
		eld := b.prof.Loads[sl.LoadPC].ExpectedLoadEnergy(b.model)
		profitable := b.sliceCost(sl) < eld
		if !profitable {
			costRejected++
		}
		if mode == ModeOracleAll || profitable {
			selected = append(selected, sl.Clone())
		}
	}
	if mode != ModeOracleAll {
		stats.RejectedCost = costRejected
	}

	ann := emit(b.model, b.prog, b.prof, selected, b.opts, b)
	ann.Stats = stats
	ann.Stats.SlicesSelected = len(ann.Slices)
	ann.Stats.DeadStores = len(ann.EliminatedStores)
	for _, s := range ann.Slices {
		ann.Stats.HistEntriesTotal += s.HistEntries
	}
	if err := ann.Prog.Validate(); err != nil {
		return nil, fmt.Errorf("compiler: emitted invalid program: %w", err)
	}
	if costRejected == 0 {
		p.shared = ann
	}
	return ann, nil
}
