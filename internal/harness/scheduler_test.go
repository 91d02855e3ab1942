package harness

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

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
