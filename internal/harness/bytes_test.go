package harness_test

import (
	"runtime"
	"testing"

	"github.com/amnesiac-sim/amnesiac/internal/harness"
	"github.com/amnesiac-sim/amnesiac/internal/workloads"
)

// TestArtifactBytes: the artifacts of the 11 responsive kernels at scale
// 0.3 count below 6 MB (their written sets alone took 16.2 MB as one word
// index per stored word), and the count is within a third of the heap that
// building them adds.
func TestArtifactBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the byte count does not depend on the race detector; the scale-0.3 builds are slow under it")
	}
	cfg := harness.DefaultConfig()
	cfg.Scale = 0.3
	cfg.Workers = 1
	ws := workloads.Responsive()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cache := harness.NewArtifactCache()
	for _, w := range ws {
		if _, err := cache.Get(cfg, w); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	st := cache.Stats()
	runtime.KeepAlive(cache)
	heap := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d artifacts count %d bytes; building them added %d bytes of heap", st.Resident, st.Bytes, heap)
	if st.Resident != len(ws) {
		t.Fatalf("%d resident entries, want %d", st.Resident, len(ws))
	}
	if st.Bytes >= 6<<20 {
		t.Errorf("artifacts count %d bytes, want below 6 MiB", st.Bytes)
	}
	if d := st.Bytes - heap; 3*d > heap || -3*d > heap {
		t.Errorf("artifacts count %d bytes, not within a third of the %d bytes of heap they add", st.Bytes, heap)
	}
}

// TestForksNeverRegrow: on the 11 responsive kernels, the classic
// baseline, a warm five-policy suite, a break-even sweep and a checkpoint
// job never grow a fork's window a second time: the written set the
// prepared image is sealed with sizes each window once. The scale is
// warm-sweep's 0.3 (0.05 under the race detector, where every kernel's
// output runs still span pages).
func TestForksNeverRegrow(t *testing.T) {
	cfg := harness.DefaultConfig()
	cfg.Scale = 0.3
	if raceEnabled {
		cfg.Scale = 0.05
	}
	cfg.Cache = harness.NewArtifactCache()
	for _, w := range workloads.Responsive() {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			art, err := cfg.Cache.Get(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			pages := uint64(0)
			for _, r := range art.Profile.Written {
				pages = max(pages, r.Len>>12)
			}
			if pages == 0 {
				t.Fatalf("no written run spans a page: nothing could regrow")
			}
			if _, err := harness.RunSuite(cfg, []*workloads.Workload{w}); err != nil {
				t.Fatal(err)
			}
			if _, err := harness.BreakEven(cfg, w, 200); err != nil {
				t.Fatal(err)
			}
			if _, err := harness.RunCheckpoint(cfg, w, 0); err != nil {
				t.Fatal(err)
			}
			if n := art.Image.Regrown(); n != 0 {
				t.Errorf("forks regrew a window %d times", n)
			}
			if refs := art.Image.Refs(); refs != 1 {
				t.Errorf("image holds %d references after its jobs, want 1", refs)
			}
		})
	}
}
