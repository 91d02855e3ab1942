package harness_test

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"github.com/amnesiac-sim/amnesiac/internal/amnesic"
	"github.com/amnesiac-sim/amnesiac/internal/compiler"
	"github.com/amnesiac-sim/amnesiac/internal/harness"
	"github.com/amnesiac-sim/amnesiac/internal/policy"
	"github.com/amnesiac-sim/amnesiac/internal/trace"
	"github.com/amnesiac-sim/amnesiac/internal/workloads"
)

// progressLog records a suite's progress units.
type progressLog struct {
	mu    sync.Mutex
	units []harness.Progress
}

func (l *progressLog) add(p harness.Progress) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.units = append(l.units, p)
}

// check asserts the log holds exactly one unit per (workload, stage) of a
// suite over ws with the given labels, that Done counts 1..Total, and that
// the units of failed stages are the ones marked failed.
func (l *progressLog) check(t *testing.T, ws []*workloads.Workload, labels []string, failed map[string]bool) {
	t.Helper()
	total := len(ws) * (1 + len(labels))
	if len(l.units) != total {
		t.Fatalf("%d progress units, want %d", len(l.units), total)
	}
	seen := map[[2]string]int{}
	dones := map[int]bool{}
	for _, p := range l.units {
		if p.Total != total {
			t.Errorf("unit %+v: Total = %d, want %d", p, p.Total, total)
		}
		if p.Failed != failed[p.Stage] {
			t.Errorf("unit %+v: Failed = %v, want %v", p, p.Failed, failed[p.Stage])
		}
		seen[[2]string{p.Workload, p.Stage}]++
		dones[p.Done] = true
	}
	for _, w := range ws {
		for _, stage := range append([]string{"prepare"}, labels...) {
			if n := seen[[2]string{w.Name, stage}]; n != 1 {
				t.Errorf("%s/%s: %d progress units, want 1", w.Name, stage, n)
			}
		}
	}
	for n := 1; n <= total; n++ {
		if !dones[n] {
			t.Errorf("no unit reported Done = %d of %d", n, total)
		}
	}
}

// costRejecting are the workloads whose only valid slice the compiler
// cost-rejects at scale 0.05, so their Oracle binary differs from Ann.
var costRejecting = []string{"GemsFDTD", "lbm", "fluidanimate", "particlefilter"}

// TestSharedRunSimulatesOnce: a five-policy suite makes one simulation per
// binary, with one lane per distinct policy kind, unless the binary has a
// body-load slice, which splits it per kind. On each responsive kernel
// Oracle and C-Oracle share a binary (the compiler cost-rejects no valid
// slice), so the suite makes one pass, except on fe, whose slice loads in
// its body: four simulations there, one per kind. A workload that
// cost-rejects its only slice makes two: Oracle on the oracle binary, and
// one run of the probabilistic binary, which keeps no slice and so serves
// the other four labels whatever their policy kind (see
// TestZeroSliceSimulatesOnce). The trace aggregate holds exactly those
// simulations: a pass's engine and its own instruction count, or the sum
// of the single-label suites' aggregates. Every label still gets its own
// run and progress unit, and each label's run deep-equals the run of a
// single-label suite.
func TestSharedRunSimulatesOnce(t *testing.T) {
	ws := workloads.Responsive()
	for _, name := range costRejecting {
		w, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	cfg := harness.DefaultConfig()
	cfg.Scale = 0.05
	cfg.Workers = 2
	cfg.Cache = harness.NewArtifactCache()
	for _, w := range ws {
		t.Run(w.Name, func(t *testing.T) {
			// Every suite below observes into its own aggregate and progress
			// log, so the workloads can run side by side.
			t.Parallel()
			ws := []*workloads.Workload{w}
			suiteCfg := cfg
			suiteCfg.TraceObs = new(trace.Agg)
			var log progressLog
			suiteCfg.Progress = log.add
			res, err := harness.RunSuiteContext(context.Background(), suiteCfg, ws)
			if err != nil {
				t.Fatal(err)
			}
			log.check(t, ws, harness.PolicyLabels, nil)

			r := res[0]
			single := map[string]trace.Stats{}
			for _, label := range harness.PolicyLabels {
				one := cfg
				one.Policies = []string{label}
				one.TraceObs = new(trace.Agg)
				s, err := harness.RunSuite(one, ws)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := r.Runs[label], s[0].Runs[label]; !reflect.DeepEqual(got, want) {
					t.Errorf("%s: five-policy run differs from a single-label suite:\n%+v\n%+v", label, got, want)
				}
				single[label] = one.TraceObs.Load()
			}

			var sims []string // the labels whose own simulations the suite makes
			switch {
			case !w.Responsive:
				if len(r.Ann.Slices) != 0 {
					t.Fatalf("%d slices left after cost rejection, want none", len(r.Ann.Slices))
				}
				sims = []string{"Oracle", "C-Oracle"} // C-Oracle's run serves every label on Ann
			case w.Name == "fe":
				sims = harness.PolicyLabels[1:] // Oracle is C-Oracle's simulation
			}
			var want trace.Stats
			for _, label := range sims {
				s := single[label]
				want.Built += s.Built
				want.Blacklisted += s.Blacklisted
				want.Replays += s.Replays
				want.ReplayedInstrs += s.ReplayedInstrs
				want.TotalInstrs += s.TotalInstrs
			}
			if sims == nil {
				want = lanesPass(t, cfg, w, r.Ann)
				// One pass takes the path C-Oracle's own run takes.
				if c := single["C-Oracle"]; want.Built != c.Built || want.Replays != c.Replays {
					t.Errorf("the pass built %d traces and replayed %d, C-Oracle alone %d and %d", want.Built, want.Replays, c.Built, c.Replays)
				}
			}
			if got := suiteCfg.TraceObs.Load(); got != want {
				t.Errorf("trace aggregate %+v, want %+v from %d simulations", got, want, max(len(sims), 1))
			}
			shared := r.OracleAnn == r.Ann
			if rejected := r.Ann.Stats.RejectedCost; shared != (rejected == 0) || shared != w.Responsive {
				t.Errorf("OracleAnn == Ann is %v with %d cost-rejected slices", shared, rejected)
			}

			oracle, coracle := r.Runs["Oracle"], r.Runs["C-Oracle"]
			if oracle == coracle {
				t.Fatal("Oracle and C-Oracle share one *PolicyRun")
			}
			if a, b := oracle.Stat.SliceRecomputes, coracle.Stat.SliceRecomputes; len(a) > 0 && len(b) > 0 && &a[0] == &b[0] {
				t.Error("Oracle and C-Oracle share a SliceRecomputes backing array")
			}
		})
	}
}

// lanesPass runs ann once with one lane per policy kind, as a five-policy
// suite does, and returns the trace statistics of that one pass.
func lanesPass(t *testing.T, cfg harness.Config, w *workloads.Workload, ann *compiler.Annotated) trace.Stats {
	t.Helper()
	art, err := cfg.Cache.Get(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	fm := art.Image.Fork()
	defer fm.Release()
	var pols []policy.Policy
	for _, k := range []policy.Kind{policy.Exact, policy.Compiler, policy.FLC, policy.LLC} {
		pols = append(pols, policy.New(k))
	}
	m, err := amnesic.NewLanes(cfg.Model, ann, fm, pols, cfg.UArch)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	var agg trace.Agg
	agg.Observe(m.Engine, m.PassInstrs())
	return agg.Load()
}

// TestSharedRunFailureKeepsLabels: a shared simulation that fails records
// its error at every label it serves, so the suite reports the error a
// serial per-label run hits first. Under dead-store elimination only the
// Compiler policy may run; the first failing label is Oracle.
func TestSharedRunFailureKeepsLabels(t *testing.T) {
	w, err := workloads.Get("is")
	if err != nil {
		t.Fatal(err)
	}
	ws := []*workloads.Workload{w}
	for _, workers := range []int{1, 4} {
		cfg := harness.DefaultConfig()
		cfg.Scale = 0.05
		cfg.Workers = workers
		cfg.Opts.EliminateDeadStores = true
		cfg.Cache = harness.NewArtifactCache()
		art, err := cfg.Cache.Get(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		if art.OracleAnn != art.Ann {
			t.Fatal("is: Oracle and C-Oracle do not share a binary; the failure is not shared")
		}
		var log progressLog
		cfg.Progress = log.add
		_, err = harness.RunSuite(cfg, ws)
		if !errors.Is(err, amnesic.ErrPolicyDSE) {
			t.Fatalf("Workers=%d: error = %v, want ErrPolicyDSE", workers, err)
		}
		if want := "harness: is/Oracle: " + amnesic.ErrPolicyDSE.Error(); err.Error() != want {
			t.Errorf("Workers=%d: error = %q, want %q", workers, err, want)
		}
		log.check(t, ws, harness.PolicyLabels, map[string]bool{"Oracle": true, "C-Oracle": true, "FLC": true, "LLC": true})
	}
}

// TestZeroSliceSimulatesOnce: a binary with no slice has no RCMP, so no
// run on it reaches a policy decision, and a five-policy suite makes one
// simulation for all five labels. The trace aggregate counts exactly one
// run's instructions, and every label's run deep-equals the run of a
// single-label suite. Under dead-store elimination the policy kind still
// decides whether a run may start, so the labels keep their per-kind
// simulations and every non-Compiler label fails.
func TestZeroSliceSimulatesOnce(t *testing.T) {
	for _, name := range []string{"perlbench", "ft"} {
		t.Run(name, func(t *testing.T) {
			w, err := workloads.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			ws := []*workloads.Workload{w}
			cfg := harness.DefaultConfig()
			cfg.Scale = 0.05
			cfg.Cache = harness.NewArtifactCache()
			suiteCfg := cfg
			suiteCfg.TraceObs = new(trace.Agg)
			var log progressLog
			suiteCfg.Progress = log.add
			res, err := harness.RunSuiteContext(context.Background(), suiteCfg, ws)
			if err != nil {
				t.Fatal(err)
			}
			log.check(t, ws, harness.PolicyLabels, nil)
			r := res[0]
			if len(r.Ann.Slices) != 0 || r.OracleAnn != r.Ann {
				t.Fatalf("%d slices, shared binary %v: not a zero-slice workload", len(r.Ann.Slices), r.OracleAnn == r.Ann)
			}
			if got, want := suiteCfg.TraceObs.Load().TotalInstrs, r.Runs["Oracle"].Acct.Instrs; got != want {
				t.Errorf("trace aggregate counted %d instructions, want %d from one simulation", got, want)
			}
			for _, label := range harness.PolicyLabels {
				if label != "Oracle" && r.Runs[label] == r.Runs["Oracle"] {
					t.Errorf("%s shares Oracle's *PolicyRun", label)
				}
				one := cfg
				one.Policies = []string{label}
				single, err := harness.RunSuite(one, ws)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := r.Runs[label], single[0].Runs[label]; !reflect.DeepEqual(got, want) {
					t.Errorf("%s: five-policy run differs from a single-label suite:\n%+v\n%+v", label, got, want)
				}
			}

			dse := cfg
			dse.Opts.EliminateDeadStores = true
			dse.Cache = harness.NewArtifactCache()
			var dseLog progressLog
			dse.Progress = dseLog.add
			_, err = harness.RunSuite(dse, ws)
			if want := "harness: " + name + "/Oracle: " + amnesic.ErrPolicyDSE.Error(); err == nil || err.Error() != want {
				t.Errorf("dead-store-eliminated suite: error = %v, want %q", err, want)
			}
			dseLog.check(t, ws, harness.PolicyLabels, map[string]bool{"Oracle": true, "C-Oracle": true, "FLC": true, "LLC": true})
		})
	}
}
