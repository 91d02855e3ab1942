package harness

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/amnesiac-sim/amnesiac/internal/exec"
	"github.com/amnesiac-sim/amnesiac/internal/policy"
	"github.com/amnesiac-sim/amnesiac/internal/workloads"
)

// TestSimulationsGroupByBinary pins the grouping rule: one simulation per
// binary with one lane per distinct policy kind, split per kind on fe,
// whose slice loads in its body, and on a dead-store-eliminated binary; a
// slice-free binary serves every label from one lane. Five labels make
// one simulation on a responsive kernel, four on fe, two on a workload
// that cost-rejects its only slice and one on a workload with no slice.
func TestSimulationsGroupByBinary(t *testing.T) {
	cases := []struct {
		name  string
		dse   bool
		lanes []int // lanes per simulation, in order
	}{
		{"is", false, []int{4}},
		{"bfs", false, []int{4}},
		{"fe", false, []int{1, 1, 1, 1}},
		{"is", true, []int{1, 1, 1, 1}},
		{"lbm", false, []int{1, 1}},
		{"perlbench", false, []int{1}},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s dse=%v", tc.name, tc.dse), func(t *testing.T) {
			w, err := workloads.Get(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.Scale = 0.05
			cfg.Opts.EliminateDeadStores = tc.dse
			art, err := NewArtifactCache().Get(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			sims := simulations(art, PolicyLabels)
			var got []int
			served := map[int]int{}
			for _, s := range sims {
				got = append(got, len(s.lanes))
				kinds := map[policy.Kind]bool{}
				for _, l := range s.lanes {
					if kinds[l.kind] {
						t.Errorf("two lanes of kind %s in one simulation", l.kind)
					}
					kinds[l.kind] = true
					for _, j := range l.labels {
						served[j]++
						if b, k := policyBinary(art, PolicyLabels[j]); b != s.binary || (k != l.kind && len(b.Slices) > 0) {
							t.Errorf("%s served by a %s lane over another binary", PolicyLabels[j], l.kind)
						}
					}
				}
			}
			if !reflect.DeepEqual(got, tc.lanes) {
				t.Errorf("lanes per simulation %v, want %v", got, tc.lanes)
			}
			for j := range PolicyLabels {
				if served[j] != 1 {
					t.Errorf("%s served %d times", PolicyLabels[j], served[j])
				}
			}
		})
	}
}

// TestLaneFallback: when a budget trips one lane of a pass, every lane
// runs again alone, so each label gets exactly the run or the error of its
// own single-lane run, and the suite reports the error a single-label
// suite of the tripped label reports, with only that label's progress unit
// failed. A cancelled context skips the reruns.
func TestLaneFallback(t *testing.T) {
	w, err := workloads.Get("is")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Scale = 0.05
	cfg.Cache = NewArtifactCache()
	art, err := cfg.Cache.get(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	sims := simulations(art, PolicyLabels)
	if len(sims) != 1 || len(sims[0].lanes) != 4 {
		t.Fatalf("is: %d simulations, want one of four lanes", len(sims))
	}
	sim := sims[0]
	free, errs := sim.run(context.Background(), cfg, art)
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Trip the lane with the largest total, and only it.
	top, budget := 0, uint64(0)
	for i, r := range free {
		if r.Acct.Instrs > free[top].Acct.Instrs {
			top = i
		}
	}
	for i, r := range free {
		if i != top {
			budget = max(budget, r.Acct.Instrs)
		}
	}
	if budget >= free[top].Acct.Instrs {
		t.Fatalf("no lane retires more than the others: %d", budget)
	}
	cfg.MaxInstrs = budget
	cfg.Cache = NewArtifactCache()
	art, err = cfg.Cache.get(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	sim = simulations(art, PolicyLabels)[0]
	var kinds []policy.Kind
	for _, l := range sim.lanes {
		kinds = append(kinds, l.kind)
	}
	if _, err := sim.pass(cfg, art, kinds); !errors.Is(err, exec.ErrInstrBudget) {
		t.Fatalf("the four-lane pass under budget %d: error %v, want the budget error", budget, err)
	}
	runs, errs := sim.run(context.Background(), cfg, art)
	for i, l := range sim.lanes {
		want, werr := RunPolicy(cfg, sim.binary, art.Image, art.Classic, art.Profile, l.kind, "")
		if fmt.Sprint(errs[i]) != fmt.Sprint(werr) || !reflect.DeepEqual(runs[i], want) {
			t.Errorf("%s lane: (%v, %v), alone (%v, %v)", l.kind, runs[i] != nil, errs[i], want != nil, werr)
		}
		if (errs[i] != nil) != (i == top) {
			t.Errorf("%s lane: error %v; only the %s lane should trip", l.kind, errs[i], sim.lanes[top].kind)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, errs := sim.run(ctx, cfg, art); !errors.Is(errs[top], exec.ErrInstrBudget) || !errors.Is(errs[(top+1)%4], exec.ErrInstrBudget) {
		t.Errorf("cancelled: errors %v, want the pass's error at every lane", errs)
	}

	var mu sync.Mutex
	failed := map[string]bool{}
	cfg.Progress = func(p Progress) {
		mu.Lock()
		defer mu.Unlock()
		failed[p.Stage] = p.Failed
	}
	_, err = RunSuite(cfg, []*workloads.Workload{w})
	trips := map[string]bool{}
	for _, j := range sim.lanes[top].labels {
		trips[PolicyLabels[j]] = true
	}
	tripped := PolicyLabels[sim.lanes[top].labels[0]] // the first to fail
	one := cfg
	one.Progress = nil
	one.Policies = []string{tripped}
	_, want := RunSuite(one, []*workloads.Workload{w})
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Errorf("suite error %v, single-label %s suite %v", err, tripped, want)
	}
	for _, label := range PolicyLabels {
		if failed[label] != trips[label] {
			t.Errorf("%s progress unit failed = %v", label, failed[label])
		}
	}
}
