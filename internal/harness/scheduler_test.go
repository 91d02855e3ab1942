package harness

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/amnesiac-sim/amnesiac/internal/policy"
	"github.com/amnesiac-sim/amnesiac/internal/workloads"
)

// TestEachWorkloadBoundsConcurrency: the workload fan-out runs at most
// cfg.Workers workloads at a time, and Workers 0 means GOMAXPROCS.
func TestEachWorkloadBoundsConcurrency(t *testing.T) {
	ws := make([]*workloads.Workload, 8)
	for i := range ws {
		ws[i] = &workloads.Workload{Name: fmt.Sprintf("w%d", i)}
	}
	for _, tc := range []struct{ workers, bound int }{
		{1, 1},
		{3, 3},
		{0, runtime.GOMAXPROCS(0)},
	} {
		var mu sync.Mutex
		running, peak := 0, 0
		cfg := Config{Workers: tc.workers}
		err := eachWorkload(context.Background(), cfg, ws, "test", func(int, *workloads.Workload) error {
			mu.Lock()
			running++
			peak = max(peak, running)
			mu.Unlock()
			time.Sleep(5 * time.Millisecond)
			mu.Lock()
			running--
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if peak > tc.bound {
			t.Errorf("Workers=%d: %d workloads ran at once, want at most %d", tc.workers, peak, tc.bound)
		}
	}
}

// TestJobsContainPanics: a panic inside a per-workload job or a policy
// simulation becomes that job's error, with the panic value and stack,
// and the pool still runs every other job.
func TestJobsContainPanics(t *testing.T) {
	ws := make([]*workloads.Workload, 4)
	for i := range ws {
		ws[i] = &workloads.Workload{Name: fmt.Sprintf("w%d", i)}
	}
	var ran sync.Map
	err := eachWorkload(context.Background(), Config{Workers: 2}, ws, "probe", func(i int, w *workloads.Workload) error {
		ran.Store(i, true)
		if i%2 == 1 {
			panic("probe " + w.Name)
		}
		return nil
	})
	if err == nil || !strings.HasPrefix(err.Error(), "harness: w1 probe: panic: probe w1\n") {
		t.Fatalf("eachWorkload error = %v, want w1's panic", err)
	}
	if !strings.Contains(err.Error(), "TestJobsContainPanics") {
		t.Errorf("panic error carries no stack:\n%v", err)
	}
	for i := range ws {
		if _, ok := ran.Load(i); !ok {
			t.Errorf("workload %d never ran", i)
		}
	}

	// A simulation over artifacts with no image panics inside runLanes.
	sim := &simulation{lanes: []simLane{{kind: policy.Exact}}}
	runs, errs := sim.run(context.Background(), DefaultConfig(), &Artifacts{})
	if runs[0] != nil || errs[0] == nil || !strings.HasPrefix(errs[0].Error(), "policy run: panic: ") {
		t.Fatalf("simulation.run = (%v, %v), want a contained panic", runs[0], errs[0])
	}
}
