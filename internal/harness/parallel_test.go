package harness_test

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/amnesiac-sim/amnesiac/internal/cpu"
	"github.com/amnesiac-sim/amnesiac/internal/harness"
	"github.com/amnesiac-sim/amnesiac/internal/workloads"
)

// renderAll renders every suite-derived report to one string, for
// byte-identity comparisons between serial and parallel runs.
func renderAll(results []*harness.BenchResult) string {
	var sb strings.Builder
	harness.Fig3(&sb, results)
	harness.Fig4(&sb, results)
	harness.Fig5(&sb, results)
	harness.Table4(&sb, results)
	harness.Table5(&sb, results)
	harness.Fig6(&sb, results)
	harness.Fig7(&sb, results)
	harness.Fig8(&sb, results)
	harness.Summary(&sb, results)
	return sb.String()
}

// TestRunSuiteParallelMatchesSerial asserts the scheduler's determinism
// contract: a parallel RunSuite over the full default (responsive) suite is
// deep-equal to a serial one, and renders byte-identical reports.
func TestRunSuiteParallelMatchesSerial(t *testing.T) {
	cfg := harness.DefaultConfig()
	cfg.Scale = 0.1
	ws := workloads.Responsive()

	serialCfg := cfg
	serialCfg.Workers = 1
	serial, err := harness.RunSuite(serialCfg, ws)
	if err != nil {
		t.Fatal(err)
	}

	parallelCfg := cfg
	parallelCfg.Workers = 4
	parallel, err := harness.RunSuite(parallelCfg, ws)
	if err != nil {
		t.Fatal(err)
	}

	if len(serial) != len(parallel) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("%s: parallel result differs from serial", serial[i].Workload.Name)
		}
	}
	if s, p := renderAll(serial), renderAll(parallel); s != p {
		t.Error("parallel reports are not byte-identical to serial reports")
	}
}

// TestPolicyFanOutConcurrent exercises the per-workload policy fan-out and
// the artifact cache under concurrent suite runs; it exists to be run under
// -race (the CI workflow does). The two suites fork the same sealed images
// at once, so deep-equal results show that no fork saw another's writes,
// and every image must be back to its own single reference afterwards.
func TestPolicyFanOutConcurrent(t *testing.T) {
	cfg := harness.DefaultConfig()
	cfg.Scale = 0.1
	cfg.Workers = len(harness.PolicyLabels)
	cfg.Cache = harness.NewArtifactCache()
	ws := []*workloads.Workload{}
	for _, name := range []string{"is", "bfs"} {
		w, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}

	var wg sync.WaitGroup
	results := make([][]*harness.BenchResult, 2)
	errs := make([]error, 2)
	for g := 0; g < 2; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[g], errs[g] = harness.RunSuite(cfg, ws)
		}()
	}
	wg.Wait()
	for g := 0; g < 2; g++ {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Error("concurrent cache-sharing runs disagree")
	}
	for _, r := range results[0] {
		for _, label := range harness.PolicyLabels {
			if r.Runs[label] == nil || !r.Runs[label].Verified {
				t.Errorf("%s/%s: missing or unverified run", r.Workload.Name, label)
			}
		}
	}
	for _, w := range ws {
		art, err := cfg.Cache.Get(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		if refs := art.Image.Refs(); refs != 1 {
			t.Errorf("%s: image refs = %d after the suites, want 1 (leaked forks)", w.Name, refs)
		}
	}
}

// TestMaxInstrsPlumbed asserts Config.MaxInstrs bounds the whole job, from
// its first pass on: an over-budget workload fails in the profile pass,
// before any validation or classic run spends its instructions.
func TestMaxInstrsPlumbed(t *testing.T) {
	w, err := workloads.Get("is")
	if err != nil {
		t.Fatal(err)
	}
	cfg := harness.DefaultConfig()
	cfg.Scale = 0.1
	cfg.MaxInstrs = 100
	_, err = harness.Run(cfg, w)
	if !errors.Is(err, cpu.ErrInstrBudget) {
		t.Fatalf("want ErrInstrBudget, got %v", err)
	}
	if want := "harness: is: profile: "; !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("budget error %q does not come from the profile pass (want prefix %q)", err, want)
	}
}

// TestBreakEvenUsesCache asserts BreakEven runs off the shared artifact
// cache and still brackets a crossing above 1.
func TestBreakEvenUsesCache(t *testing.T) {
	if testing.Short() {
		t.Skip("slow sweep")
	}
	w, err := workloads.Get("is")
	if err != nil {
		t.Fatal(err)
	}
	cfg := harness.DefaultConfig()
	cfg.Scale = 0.2
	cfg.Cache = harness.NewArtifactCache()

	// Prime the cache through a normal run, then sweep twice: once with one
	// worker, once with two. Results must agree exactly.
	if _, err := harness.Run(cfg, w); err != nil {
		t.Fatal(err)
	}
	serialCfg := cfg
	serialCfg.Workers = 1
	beSerial, err := harness.BreakEven(serialCfg, w, 200)
	if err != nil {
		t.Fatal(err)
	}
	parallelCfg := cfg
	parallelCfg.Workers = 2
	beParallel, err := harness.BreakEven(parallelCfg, w, 200)
	if err != nil {
		t.Fatal(err)
	}
	if beSerial != beParallel {
		t.Errorf("break-even differs: serial %v vs parallel %v", beSerial, beParallel)
	}
	if beSerial <= 1 {
		t.Errorf("break-even %v must exceed 1", beSerial)
	}
}
