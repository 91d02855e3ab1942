package harness_test

import (
	"testing"

	"github.com/amnesiac-sim/amnesiac/internal/amnesic"
	"github.com/amnesiac-sim/amnesiac/internal/cpu"
	"github.com/amnesiac-sim/amnesiac/internal/energy"
	"github.com/amnesiac-sim/amnesiac/internal/harness"
	"github.com/amnesiac-sim/amnesiac/internal/policy"
	"github.com/amnesiac-sim/amnesiac/internal/stats"
	"github.com/amnesiac-sim/amnesiac/internal/workloads"
)

// simulateAt runs the classic program and C-Oracle on forks of art's image,
// accounting under m. C-Oracle decides under cfg.Model, as the break-even
// sweep requires.
func simulateAt(cfg harness.Config, art *harness.Artifacts, m *energy.Model) (classic, coracle energy.Account, err error) {
	cm := art.Image.Fork()
	res, err := cpu.RunProgramLimit(m, art.Prog, cm, cfg.MaxInstrs)
	cm.Release()
	if err != nil {
		return classic, coracle, err
	}
	am := art.Image.Fork()
	defer am.Release()
	machine, err := amnesic.New(m, art.Ann, am, policy.New(policy.Exact), cfg.UArch)
	if err != nil {
		return classic, coracle, err
	}
	machine.MaxInstrs = cfg.MaxInstrs
	machine.DecisionModel = cfg.Model
	if err := machine.Run(); err != nil {
		return classic, coracle, err
	}
	return res.Acct, machine.Acct, nil
}

// scaledR returns a copy of base with the compute EPIs scaled by factor.
func scaledR(base *energy.Model, factor float64) *energy.Model {
	m := base.Clone()
	m.RScale = factor
	return m
}

// breakEvenBySimulation is the sweep BreakEven replaced, kept as its
// reference: the same bisection, but every probe re-simulates both
// programs at the probed factor.
func breakEvenBySimulation(cfg harness.Config, w *workloads.Workload, maxFactor float64) (float64, error) {
	art, err := cfg.Cache.Get(cfg, w)
	if err != nil {
		return 0, err
	}
	gainAt := func(factor float64) (float64, error) {
		classic, coracle, err := simulateAt(cfg, art, scaledR(cfg.Model, factor))
		return stats.Gain(classic.EDP(), coracle.EDP()), err
	}
	lo, hi := 1.0, maxFactor
	if g, err := gainAt(lo); err != nil || g <= 0 {
		return 1, err
	}
	if g, err := gainAt(hi); err != nil || g > 0 {
		return hi, err
	}
	for i := 0; i < 18 && hi-lo > 0.01*lo; i++ {
		mid := (lo + hi) / 2
		g, err := gainAt(mid)
		if err != nil {
			return 0, err
		}
		if g > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// TestBreakEvenMatchesSimulation: pricing the cached classic account and
// one C-Oracle account must reproduce the simulate-per-probe sweep bit for
// bit, on kernels that bisect (bfs, fe) and one that stays profitable up
// to the bound (sr).
func TestBreakEvenMatchesSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("slow sweep")
	}
	const maxFactor = 200
	cfg := harness.DefaultConfig()
	cfg.Scale = 0.1
	cfg.Cache = harness.NewArtifactCache()
	for _, tc := range []struct {
		name   string
		bisect bool
	}{{"bfs", true}, {"fe", true}, {"sr", false}} {
		w, err := workloads.Get(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := harness.BreakEven(cfg, w, maxFactor)
		if err != nil {
			t.Fatal(err)
		}
		want, err := breakEvenBySimulation(cfg, w, maxFactor)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: BreakEven = %v, simulate-per-probe sweep = %v", tc.name, got, want)
		}
		if bisected := got > 1 && got < maxFactor; bisected != tc.bisect {
			t.Errorf("%s: factor %v, want bisected=%v", tc.name, got, tc.bisect)
		}
	}
}

// TestCountsIndependentOfPricing is the premise of re-pricing: the model an
// account is priced under changes no event count, nor TimeNS, of the
// classic run or of C-Oracle with its decisions frozen at the base model —
// only the energy. Besides RScale 37, the sweep's own knob, it prices under
// a model whose hierarchy energies are a quarter of the default: RScale
// cannot reach C-Oracle's decisions (the Exact policy weighs a slice's
// compile-time cost against the load energy, which RScale leaves alone),
// and cheaper loads would flip many of them, so only the second model
// shows that the decisions really come from the decision model.
func TestCountsIndependentOfPricing(t *testing.T) {
	cfg := harness.DefaultConfig()
	cfg.Scale = 0.05
	cfg.Cache = harness.NewArtifactCache()
	cheapMem := cfg.Model.Clone()
	for l := range cheapMem.ReadEnergy {
		cheapMem.ReadEnergy[l] /= 4
		cheapMem.WriteEnergy[l] /= 4
	}
	for _, name := range []string{"bfs", "fe"} {
		w, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		art, err := cfg.Cache.Get(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		c1, a1, err := simulateAt(cfg, art, cfg.Model)
		if err != nil {
			t.Fatal(err)
		}
		if a1.Recomputed == 0 {
			t.Fatalf("%s: C-Oracle fired no recomputation; the comparison is vacuous", name)
		}
		for _, m := range []struct {
			name  string
			model *energy.Model
		}{{"RScale 37", scaledR(cfg.Model, 37)}, {"hierarchy energy / 4", cheapMem}} {
			c, a, err := simulateAt(cfg, art, m.model)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []struct {
				run       string
				base, got energy.Account
			}{{"classic", c1, c}, {"C-Oracle", a1, a}} {
				if p.base.EnergyNJ == p.got.EnergyNJ {
					t.Fatalf("%s %s: energy unchanged under %s; the comparison is vacuous", name, p.run, m.name)
				}
				if countsOf(p.base) != countsOf(p.got) {
					t.Errorf("%s %s: counts or time depend on the pricing model:\n  base:   %+v\n  %s: %+v",
						name, p.run, p.base, m.name, p.got)
				}
			}
		}
	}
}

// countsOf clears a's priced energy fields, keeping the counts and TimeNS.
func countsOf(a energy.Account) energy.Account {
	a.EnergyNJ, a.LoadNJ, a.StoreNJ, a.NonMemNJ = 0, 0, 0, 0
	a.HistReadNJ, a.ProbeNJ, a.FetchNJ = 0, 0, 0
	return a
}
