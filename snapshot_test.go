package amnesiac_test

import (
	"runtime"
	"testing"

	"github.com/amnesiac-sim/amnesiac/internal/harness"
	"github.com/amnesiac-sim/amnesiac/internal/mem"
	"github.com/amnesiac-sim/amnesiac/internal/workloads"
)

// snapshotCost returns the heap allocations and bytes per call of n calls
// to snapshot. Every snapshot stays live until the second read, so none of
// them can be stack-allocated, and is released afterwards.
func snapshotCost(n int, snapshot func() *mem.Memory) (allocs, bytes float64) {
	keep := make([]*mem.Memory, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = snapshot()
	}
	runtime.ReadMemStats(&after)
	for _, m := range keep {
		m.Release()
	}
	return float64(after.Mallocs-before.Mallocs) / float64(n),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestForkCheaperThanCloneOnPreparedImages holds copy-on-write snapshots to
// their contract on the images jobs really fork: the prepared images of
// mcf and cg, whose data makes them MB-scale. A fork must allocate at
// least ten times fewer bytes than a deep clone, and no more allocations.
// A clone of a real image is a few allocations, one per flat window, so a
// ratio of counts would gate on noise; internal/mem's
// TestForkTenTimesCheaperThanClone holds the count line on a fixture with
// many regions.
func TestForkCheaperThanCloneOnPreparedImages(t *testing.T) {
	cfg := harness.DefaultConfig()
	cfg.Scale = 0.05
	cfg.Cache = harness.NewArtifactCache()
	for _, name := range []string{"mcf", "cg"} {
		w, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		art, err := cfg.Cache.Get(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		img := art.Image
		cloneAllocs, cloneBytes := snapshotCost(16, func() *mem.Memory { return img.Mem().Clone() })
		forkAllocs, forkBytes := snapshotCost(16, img.Fork)
		t.Logf("%s: clone %.2f allocs / %.0f B per op; fork %.2f allocs / %.0f B per op",
			name, cloneAllocs, cloneBytes, forkAllocs, forkBytes)
		if forkBytes*10 > cloneBytes {
			t.Errorf("%s: fork allocates %.0f B per op, not 10x fewer than clone's %.0f B", name, forkBytes, cloneBytes)
		}
		if forkAllocs > cloneAllocs {
			t.Errorf("%s: fork makes %.2f allocations per op, more than clone's %.2f", name, forkAllocs, cloneAllocs)
		}
		if refs := img.Refs(); refs != 1 {
			t.Errorf("%s: image refs = %d after the forks were released, want 1", name, refs)
		}
	}
}
