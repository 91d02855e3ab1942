package harness_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/amnesiac-sim/amnesiac/internal/asm"
	"github.com/amnesiac-sim/amnesiac/internal/harness"
	"github.com/amnesiac-sim/amnesiac/internal/isa"
	"github.com/amnesiac-sim/amnesiac/internal/mem"
	"github.com/amnesiac-sim/amnesiac/internal/workloads"
)

// suiteWorkloads is the three-workload list the suite fan-out tests use.
func suiteWorkloads(t *testing.T) []*workloads.Workload {
	t.Helper()
	var ws []*workloads.Workload
	for _, name := range []string{"bfs", "sr", "is"} {
		w, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	return ws
}

// faulting is a workload whose first load is misaligned, so its prepare
// stage fails with an error that names it.
func faulting(t *testing.T, name string) *workloads.Workload {
	t.Helper()
	p, err := asm.Parse(name, "li r1, 9\nld r2, 0(r1)\nhalt\n")
	if err != nil {
		t.Fatal(err)
	}
	return &workloads.Workload{Name: name, Build: func(float64) (*isa.Program, *mem.Memory) {
		return p, mem.NewMemory()
	}}
}

// suites are the two workload-parallel suites, by their progress stage.
var suites = []struct {
	stage string
	run   func(ctx context.Context, cfg harness.Config, ws []*workloads.Workload) (any, error)
}{
	{"breakeven", func(ctx context.Context, cfg harness.Config, ws []*workloads.Workload) (any, error) {
		return harness.BreakEvenSuiteContext(ctx, cfg, ws, 50)
	}},
	{"checkpoint", func(ctx context.Context, cfg harness.Config, ws []*workloads.Workload) (any, error) {
		return harness.RunCheckpointSuite(ctx, cfg, ws, 0)
	}},
}

// TestSuitesParallelMatchSerial: break-even and checkpoint suites return
// deep-equal results at one and four workers, and report one progress
// unit, named by the suite's stage, per workload.
func TestSuitesParallelMatchSerial(t *testing.T) {
	ws := suiteWorkloads(t)
	for _, suite := range suites {
		stage, run := suite.stage, suite.run
		t.Run(stage, func(t *testing.T) {
			var results []any
			for _, workers := range []int{1, 4} {
				cfg := harness.DefaultConfig()
				cfg.Scale = 0.1
				cfg.Workers = workers
				var mu sync.Mutex
				seen := map[string]int{}
				cfg.Progress = func(p harness.Progress) {
					mu.Lock()
					defer mu.Unlock()
					if p.Stage != stage || p.Total != len(ws) || p.Failed {
						t.Errorf("Workers=%d: progress %+v", workers, p)
					}
					seen[p.Workload]++
				}
				res, err := run(context.Background(), cfg, ws)
				if err != nil {
					t.Fatalf("Workers=%d: %v", workers, err)
				}
				for _, w := range ws {
					if seen[w.Name] != 1 {
						t.Errorf("Workers=%d: %s reported %d progress units, want 1", workers, w.Name, seen[w.Name])
					}
				}
				results = append(results, res)
			}
			if !reflect.DeepEqual(results[0], results[1]) {
				t.Fatalf("Workers=4 result differs from Workers=1:\n%v\n%v", results[1], results[0])
			}
		})
	}
}

// TestSuitesReportLowestIndexError: with two failing workloads running
// concurrently, a suite reports the one a serial loop would hit first.
func TestSuitesReportLowestIndexError(t *testing.T) {
	is, err := workloads.Get("is")
	if err != nil {
		t.Fatal(err)
	}
	ws := []*workloads.Workload{is, faulting(t, "fault-a"), is, faulting(t, "fault-b")}
	for _, suite := range suites {
		stage, run := suite.stage, suite.run
		t.Run(stage, func(t *testing.T) {
			cfg := harness.DefaultConfig()
			cfg.Scale = 0.05
			cfg.Workers = 4
			_, err := run(context.Background(), cfg, ws)
			if err == nil || !strings.Contains(err.Error(), "fault-a") {
				t.Fatalf("error = %v, want the lowest-index failure (fault-a)", err)
			}
		})
	}
}

// TestSuitesCancelled: a cancelled ctx stops a suite before any workload
// runs and surfaces the ctx error.
func TestSuitesCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, suite := range suites {
		stage, run := suite.stage, suite.run
		t.Run(stage, func(t *testing.T) {
			cfg := harness.DefaultConfig()
			cfg.Scale = 0.05
			cfg.Workers = 2
			cfg.Progress = func(p harness.Progress) { t.Errorf("cancelled suite ran %+v", p) }
			if _, err := run(ctx, cfg, suiteWorkloads(t)); !errors.Is(err, context.Canceled) {
				t.Fatalf("error = %v, want context.Canceled", err)
			}
		})
	}
}
