// Report schema and the runner that executes a JobSpec into deterministic
// JSON bytes. The harness's parallel output is deep-equal to a serial run,
// and every slice here renders in canonical order, so marshaling is
// byte-stable: re-running a spec reproduces the cached bytes exactly.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"github.com/amnesiac-sim/amnesiac/internal/difftest"
	"github.com/amnesiac-sim/amnesiac/internal/energy"
	"github.com/amnesiac-sim/amnesiac/internal/harness"
	"github.com/amnesiac-sim/amnesiac/internal/trace"
	"github.com/amnesiac-sim/amnesiac/internal/workloads"
)

// Report is the JSON document served by GET /v1/reports/{key}. Exactly one
// of Suite/BreakEven/Difftest is populated, per Spec.Kind.
type Report struct {
	// Spec is the canonical (Normalize-d) spec with the deadline zeroed —
	// the report describes the cacheable identity, not one submission.
	Spec       JobSpec          `json:"spec"`
	Suite      []WorkloadReport `json:"suite,omitempty"`
	BreakEven  []BreakEvenRow   `json:"break_even,omitempty"`
	Difftest   *DifftestReport  `json:"difftest,omitempty"`
	Checkpoint []CheckpointRow  `json:"checkpoint,omitempty"`
}

// ClassicReport summarizes the classic (non-amnesic) baseline execution.
type ClassicReport struct {
	EnergyNJ float64 `json:"energy_nj"`
	TimeNS   float64 `json:"time_ns"`
	EDP      float64 `json:"edp"`
	Instrs   uint64  `json:"instrs"`
	Loads    uint64  `json:"loads"`
	Stores   uint64  `json:"stores"`
}

// PolicyReport is one amnesic run, mirroring cmd/amnesiac's table row.
type PolicyReport struct {
	Label         string  `json:"label"`
	EnergyNJ      float64 `json:"energy_nj"`
	TimeNS        float64 `json:"time_ns"`
	EDPGainPct    float64 `json:"edp_gain_pct"`
	EnergyGainPct float64 `json:"energy_gain_pct"`
	TimeGainPct   float64 `json:"time_gain_pct"`
	RcmpFired     uint64  `json:"rcmp_fired"`
	RcmpTotal     uint64  `json:"rcmp_total"`
	SwappedLoads  uint64  `json:"swapped_loads"`
	Verified      bool    `json:"verified"`
}

// WorkloadReport is one benchmark's suite entry.
type WorkloadReport struct {
	Name     string         `json:"name"`
	Program  string         `json:"program"`
	Slices   int            `json:"slices"`
	Classic  ClassicReport  `json:"classic"`
	Policies []PolicyReport `json:"policies"`
}

// BreakEvenRow is one benchmark's Table 6 entry: the normalized R at which
// C-Oracle stops improving EDP ("AtBound" when still profitable at MaxR).
type BreakEvenRow struct {
	Name    string  `json:"name"`
	Factor  float64 `json:"factor"`
	AtBound bool    `json:"at_bound"`
}

// CheckpointRow is one (workload, policy) checkpoint-experiment entry,
// mirroring harness.CheckpointResult.
type CheckpointRow struct {
	Name              string  `json:"name"`
	Policy            string  `json:"policy"`
	Interval          uint64  `json:"interval"`
	Checkpoints       int     `json:"checkpoints"`
	AvgPayloadWords   float64 `json:"avg_payload_words"`
	FootprintWords    float64 `json:"footprint_words"`
	SavingsPct        float64 `json:"savings_pct"`
	CkptEnergyNJ      float64 `json:"ckpt_energy_nj"`
	RestartWords      int     `json:"restart_words"`
	RestartRecomputed int     `json:"restart_recomputed"`
	RestartEnergyNJ   float64 `json:"restart_energy_nj"`
	RestartTimeNS     float64 `json:"restart_time_ns"`
	Verified          bool    `json:"verified"`
}

// DifftestReport summarizes a differential-oracle sweep.
type DifftestReport struct {
	Seed     int64    `json:"seed"`
	Seeds    int      `json:"seeds"`
	Passed   int      `json:"passed"`
	Failed   int      `json:"failed"`
	Failures []string `json:"failures,omitempty"` // first few divergence reports
}

// maxDifftestFailures bounds the embedded divergence details.
const maxDifftestFailures = 5

// runner executes normalized specs. One runner is shared by all job
// workers: the energy model is read-only during runs and the shared
// harness.ArtifactCache deduplicates prepare-stage work (profiles,
// compiles, classic baselines, sealed images) across jobs — the artifact
// layer under the report cache, so even a report-cache miss reuses
// compatible artifacts. A suite, break-even or checkpoint job looks each
// of its workloads up there exactly once, so the cache's counters read
// one hit or miss per (job, workload).
type runner struct {
	model      *energy.Model
	artifacts  *harness.ArtifactCache
	simWorkers int
	// hook, when non-nil, observes every actual execution (not cache hits,
	// not coalesced duplicates). Tests use it to count executions.
	hook func(spec JobSpec)
}

func newRunner(simWorkers int) *runner {
	return &runner{
		model:      energy.Default(),
		artifacts:  harness.NewArtifactCache(),
		simWorkers: simWorkers,
	}
}

// run executes spec and returns the marshaled report. emit receives
// progress events; it must be safe for concurrent use (job.emit is). obs,
// when non-nil, accumulates trace-engine statistics from the job's amnesic
// simulations (suite kinds only — difftest's oracle arms manage their own
// trace configuration).
func (r *runner) run(ctx context.Context, spec JobSpec, emit func(Event), obs *trace.Agg) ([]byte, error) {
	if r.hook != nil {
		r.hook(spec)
	}
	rep := Report{Spec: spec}
	rep.Spec.TimeoutMS = 0

	ws := make([]*workloads.Workload, len(spec.Workloads))
	for i, name := range spec.Workloads {
		w, err := workloads.Get(name)
		if err != nil {
			return nil, err
		}
		ws[i] = w
	}
	cfg := r.config(spec)
	cfg.Progress = func(p harness.Progress) {
		emit(Event{Type: "progress", Workload: p.Workload, Stage: p.Stage, Done: p.Done, Total: p.Total})
	}

	var err error
	switch spec.Kind {
	case KindSuite:
		rep.Suite, err = runSuite(ctx, cfg, spec, ws, obs)
	case KindBreakEven:
		rep.BreakEven, err = runBreakEven(ctx, cfg, spec, ws)
	case KindDifftest:
		rep.Difftest, err = r.runDifftest(ctx, spec, emit)
	case KindCheckpoint:
		rep.Checkpoint, err = runCheckpoint(ctx, cfg, spec, ws)
	default:
		err = fmt.Errorf("server: unknown kind %q", spec.Kind)
	}
	if err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("server: marshal report: %w", err)
	}
	return append(data, '\n'), nil
}

func (r *runner) config(spec JobSpec) harness.Config {
	cfg := harness.DefaultConfig()
	cfg.Model = r.model
	cfg.Scale = spec.Scale
	cfg.MaxInstrs = spec.MaxInstrs
	cfg.Workers = r.simWorkers
	cfg.Cache = r.artifacts
	return cfg
}

func runSuite(ctx context.Context, cfg harness.Config, spec JobSpec, ws []*workloads.Workload, obs *trace.Agg) ([]WorkloadReport, error) {
	// Execute only the requested policies: a subset spec pays for at most
	// the simulations it asked for, and SSE Total counts only those stages.
	cfg.Policies = spec.Policies
	cfg.TraceObs = obs
	results, err := harness.RunSuiteContext(ctx, cfg, ws)
	if err != nil {
		return nil, err
	}

	out := make([]WorkloadReport, len(results))
	for i, res := range results {
		wr := WorkloadReport{
			Name:    res.Workload.Name,
			Program: res.Program,
			Slices:  len(res.Ann.Slices),
			Classic: ClassicReport{
				EnergyNJ: res.Classic.Acct.EnergyNJ,
				TimeNS:   res.Classic.Acct.TimeNS,
				EDP:      res.Classic.Acct.EDP(),
				Instrs:   res.Classic.Acct.Instrs,
				Loads:    res.Classic.Acct.Loads,
				Stores:   res.Classic.Acct.Stores,
			},
		}
		for _, label := range spec.Policies {
			run := res.Runs[label]
			wr.Policies = append(wr.Policies, PolicyReport{
				Label:         run.Label,
				EnergyNJ:      run.Acct.EnergyNJ,
				TimeNS:        run.Acct.TimeNS,
				EDPGainPct:    run.EDPGain,
				EnergyGainPct: run.EnergyGain,
				TimeGainPct:   run.TimeGain,
				RcmpFired:     run.Stat.RcmpRecomputed,
				RcmpTotal:     run.Stat.RcmpTotal,
				SwappedLoads:  run.SwappedCount,
				Verified:      run.Verified,
			})
		}
		out[i] = wr
	}
	return out, nil
}

func runBreakEven(ctx context.Context, cfg harness.Config, spec JobSpec, ws []*workloads.Workload) ([]BreakEvenRow, error) {
	factors, err := harness.BreakEvenSuiteContext(ctx, cfg, ws, spec.MaxR)
	if err != nil {
		return nil, err
	}
	out := make([]BreakEvenRow, len(factors))
	for i, factor := range factors {
		out[i] = BreakEvenRow{Name: spec.Workloads[i], Factor: factor, AtBound: factor >= spec.MaxR}
	}
	return out, nil
}

func runCheckpoint(ctx context.Context, cfg harness.Config, spec JobSpec, ws []*workloads.Workload) ([]CheckpointRow, error) {
	rows, err := harness.RunCheckpointSuite(ctx, cfg, ws, spec.CkptInterval)
	if err != nil {
		return nil, err
	}
	out := make([]CheckpointRow, len(rows))
	for i, cr := range rows {
		out[i] = CheckpointRow{
			Name:              cr.Workload,
			Policy:            cr.Policy.String(),
			Interval:          cr.Interval,
			Checkpoints:       cr.Checkpoints,
			AvgPayloadWords:   cr.AvgPayloadWords,
			FootprintWords:    cr.FootprintWords,
			SavingsPct:        cr.SavingsPct,
			CkptEnergyNJ:      cr.CkptEnergyNJ,
			RestartWords:      cr.RestartWords,
			RestartRecomputed: cr.RestartRecomputed,
			RestartEnergyNJ:   cr.RestartEnergyNJ,
			RestartTimeNS:     cr.RestartTimeNS,
			Verified:          cr.Verified,
		}
	}
	return out, nil
}

func (r *runner) runDifftest(ctx context.Context, spec JobSpec, emit func(Event)) (*DifftestReport, error) {
	opts := difftest.DefaultOptions()
	opts.Model = r.model
	if spec.MaxInstrs != 0 {
		opts.MaxInstrs = spec.MaxInstrs
	}
	rep := &DifftestReport{Seed: spec.Seed, Seeds: spec.Seeds}
	every := spec.Seeds / 10
	if every < 1 {
		every = 1
	}
	for i := 0; i < spec.Seeds; i++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("server: difftest cancelled: %w", err)
		}
		err := difftest.CheckSeed(spec.Seed+int64(i), opts)
		var d *difftest.Divergence
		switch {
		case err == nil:
			rep.Passed++
		case errors.As(err, &d):
			rep.Failed++
			if len(rep.Failures) < maxDifftestFailures {
				rep.Failures = append(rep.Failures, d.Error())
			}
		default:
			// Infrastructure failure (generator config, etc.), not a found
			// bug: the job fails rather than reporting a green sweep.
			return nil, err
		}
		if (i+1)%every == 0 || i+1 == spec.Seeds {
			emit(Event{Type: "progress", Stage: "difftest", Done: i + 1, Total: spec.Seeds})
		}
	}
	return rep, nil
}
