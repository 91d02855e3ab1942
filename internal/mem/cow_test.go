package mem

import (
	"runtime"
	"sync"
	"testing"
)

// sealedFixture builds a memory whose contents span all three
// representations (primary arena, secondary regions, page map) and seals
// it. Layout mirrors TestSnapshotRestoreRoundTrip: the four flat-region
// slots are exhausted so 0x4000_0000 really is page-mapped.
func sealedFixture(t testing.TB) *Image {
	t.Helper()
	m := NewMemory()
	for _, b := range []uint64{0x100, 0x0800_0000, 0x1000_0000, 0x2000_0000} {
		m.Store(b, b^0xABCD)
	}
	m.Store(0x4000_0000, 0xfeed)
	m.Store(0x4000_0000+8*pageWords*3, 0xfade) // second sparse page
	return m.Seal()
}

func TestForkIsolation(t *testing.T) {
	img := sealedFixture(t)
	pristine := img.Mem().Clone()

	f1, f2 := img.Fork(), img.Fork()
	if got := img.Refs(); got != 3 {
		t.Fatalf("Refs = %d after two forks, want 3", got)
	}
	// Writes land in every representation: arena, secondary region, page.
	f1.Store(0x100, 11)
	f1.Store(0x0800_0000, 12)
	f1.Store(0x4000_0000, 13)
	f2.Store(0x100, 21)

	if f1.Load(0x100) != 11 || f1.Load(0x0800_0000) != 12 || f1.Load(0x4000_0000) != 13 {
		t.Error("fork 1 does not read its own writes")
	}
	if f2.Load(0x100) != 21 {
		t.Error("fork 2 does not read its own write")
	}
	// Unwritten words read through to the base in both forks.
	if f1.Load(0x1000_0000) != 0x1000_0000^0xABCD || f2.Load(0x4000_0000) != 0xfeed {
		t.Error("fork does not read through to base for untouched words")
	}
	// The sealed base must be bit-for-bit pristine.
	if !img.Mem().Equal(pristine) {
		t.Errorf("base image mutated by fork writes: %#x", img.Mem().Diff(pristine, 8))
	}

	f1.Release()
	f2.Release()
	if got := img.Refs(); got != 1 {
		t.Errorf("Refs = %d after releases, want 1", got)
	}
}

// TestForkOverlayGranularity: one store copies exactly one flat region (or
// one page); everything untouched stays shared and costs nothing.
func TestForkOverlayGranularity(t *testing.T) {
	img := sealedFixture(t)
	f := img.Fork()
	if st := f.Overlay(); st != (OverlayStats{}) {
		t.Fatalf("fresh fork Overlay = %v, want zero", st)
	}
	f.Store(0x100, 1) // primary arena
	st := f.Overlay()
	if st.Regions != 1 || st.Pages != 0 {
		t.Errorf("after arena store Overlay = %v, want 1 region, 0 pages", st)
	}
	f.Store(0x0800_0000, 2) // one secondary region
	if st = f.Overlay(); st.Regions != 2 {
		t.Errorf("after region store Overlay = %v, want 2 regions", st)
	}
	f.Store(0x4000_0000, 3) // one base page
	if st = f.Overlay(); st.Pages != 1 {
		t.Errorf("after page store Overlay = %v, want 1 overlay page", st)
	}
	// The second sparse base page was never written: still shared.
	if f.Load(0x4000_0000+8*pageWords*3) != 0xfade {
		t.Error("untouched base page unreadable through fork")
	}
	if st = f.Overlay(); st.Pages != 1 {
		t.Errorf("reading a base page materialized it: %v", st)
	}
	// Overlay is zero (not meaningful) for private memories.
	if st = img.Mem().Clone().Overlay(); st != (OverlayStats{}) {
		t.Errorf("private memory Overlay = %v, want zero", st)
	}
}

// TestForkWindowGrowth: a fork store beyond the aliased window's length
// grows a private copy carrying the base contents, without touching the
// base; a store beyond the base arena in a *different* fork stays unseen.
func TestForkWindowGrowth(t *testing.T) {
	m := NewMemory()
	m.Store(wordAddr(5), 55) // one-page arena at base 0
	img := m.Seal()
	baseLen := len(img.Mem().arena)

	f := img.Fork()
	grow := wordAddr(uint64(3 * pageWords))
	f.Store(grow, 99) // beyond aliased length: growth materializes
	if f.Load(grow) != 99 || f.Load(wordAddr(5)) != 55 {
		t.Error("grown fork window lost base or new values")
	}
	if len(img.Mem().arena) != baseLen {
		t.Error("fork growth resized the sealed base arena")
	}
	if img.Mem().Load(grow) != 0 {
		t.Error("fork growth leaked into the base")
	}
	if st := f.Overlay(); st.Regions != 1 || st.Words < 4*pageWords {
		t.Errorf("Overlay after growth = %v, want grown private arena", st)
	}
}

// TestForkNewRegionAnchor: a fork store outside every base window anchors
// a fork-private region, clipped against the inherited layout.
func TestForkNewRegionAnchor(t *testing.T) {
	m := NewMemory()
	m.Store(0x100, 1)
	img := m.Seal()
	f := img.Fork()
	f.Store(0x0900_0000, 7)
	if f.Load(0x0900_0000) != 7 {
		t.Error("fork-anchored region lost its value")
	}
	if _, _, _, ok := img.Mem().WindowForW(0x0900_0000); ok {
		t.Error("fork anchor appeared in the base")
	}
	if img.Mem().Load(0x0900_0000) != 0 {
		t.Error("fork anchor leaked into base contents")
	}
}

// TestForkGrowthMigratesBasePages: when a fork's window grows over a page
// that lives in the base's page map, the contents migrate into the private
// window and the base page survives untouched.
func TestForkGrowthMigratesBasePages(t *testing.T) {
	m := NewMemory()
	m.Store(wordAddr(0x20), 1) // one-page arena at base 0
	// Plant a base page inside the primary window's growth range, as
	// TestSnapshotRestoreAcrossWindowMigration does.
	spillW := uint64(2*pageWords + 5)
	p := new(page)
	p[spillW&pageMask] = 0xfeed
	m.pages[spillW>>pageShift] = p
	img := m.Seal()

	f := img.Fork()
	f.Store(wordAddr(3*pageWords), 0xbeef) // growth swallows the spilled page
	if f.Load(wordAddr(spillW)) != 0xfeed {
		t.Error("fork growth lost the base page contents")
	}
	if img.Mem().pages[spillW>>pageShift] == nil {
		t.Error("fork growth deleted the base's page")
	}
	if img.Mem().Load(wordAddr(spillW)) != 0xfeed {
		t.Error("base page contents changed")
	}
}

// TestForkPageCacheCoherence: a fork that cached a base page in the
// one-entry load cache must see its own subsequent write to that page.
func TestForkPageCacheCoherence(t *testing.T) {
	img := sealedFixture(t)
	f := img.Fork()
	if f.Load(0x4000_0000) != 0xfeed { // populates the 1-entry cache with the base page
		t.Fatal("read-through failed")
	}
	f.Store(0x4000_0000+8, 42) // copy-on-write of the same page
	if f.Load(0x4000_0000+8) != 42 {
		t.Error("fork read stale base page after COW copy")
	}
	if f.Load(0x4000_0000) != 0xfeed {
		t.Error("COW page copy lost neighbouring base words")
	}
	if img.Mem().Load(0x4000_0000+8) != 0 {
		t.Error("page write leaked into base")
	}
}

// TestForkZeroStoreToUntouchedPage: the zero-store elision must survive
// forking — no overlay page is allocated when the base has no page either.
func TestForkZeroStoreToUntouchedPage(t *testing.T) {
	img := sealedFixture(t)
	f := img.Fork()
	f.Store(0x7000_0000, 0)
	if len(f.pages) != 0 {
		t.Error("zero store to untouched page allocated an overlay page")
	}
}

// TestForkCloneAndEquality: Clone of a fork flattens into an independent
// private memory; Equal/Diff/Footprint agree across fork, clone, and a
// mutated-from-scratch twin.
func TestForkCloneAndEquality(t *testing.T) {
	img := sealedFixture(t)
	mutate := func(mm *Memory) {
		mm.Store(0x100, 77)
		mm.Store(0x4000_0000, 78)
		mm.Store(wordAddr(3*pageWords), 79) // grows the primary window
	}
	f := img.Fork()
	mutate(f)
	twin := img.Mem().Clone()
	mutate(twin)

	if !f.Equal(twin) || !twin.Equal(f) {
		t.Fatalf("fork != clone-twin after identical mutations: %#x", f.Diff(twin, 8))
	}
	if f.Footprint() != twin.Footprint() {
		t.Errorf("Footprint fork %d vs twin %d", f.Footprint(), twin.Footprint())
	}

	flat := f.Clone()
	if flat.Forked() {
		t.Error("Clone of a fork must be private")
	}
	if !flat.Equal(f) {
		t.Fatalf("clone of fork differs: %#x", flat.Diff(f, 8))
	}
	flat.Store(0x2000_0000, 1234)
	if f.Load(0x2000_0000) == 1234 || img.Mem().Load(0x2000_0000) == 1234 {
		t.Error("mutating the flattened clone leaked into fork or base")
	}

	// Diff between fork and pristine base sees exactly the mutated words.
	if d := f.Diff(img.Mem(), 16); len(d) != 3 {
		t.Errorf("Diff(fork, base) = %#x, want the 3 mutated words", d)
	}
}

// TestSealOfForkFlattens: sealing a forked view produces an independent
// image with identical contents and drops the fork's base reference.
func TestSealOfForkFlattens(t *testing.T) {
	img := sealedFixture(t)
	f := img.Fork()
	f.Store(0x100, 9999)
	want := f.Clone()

	img2 := f.Seal()
	if got := img.Refs(); got != 1 {
		t.Errorf("base Refs = %d after sealing the fork, want 1", got)
	}
	if !img2.Mem().Equal(want) {
		t.Errorf("sealed fork differs from its contents: %#x", img2.Mem().Diff(want, 8))
	}
	f2 := img2.Fork()
	if f2.Load(0x100) != 9999 {
		t.Error("fork of sealed fork lost the overlay write")
	}
	f2.Release()
}

func TestSealedStorePanics(t *testing.T) {
	img := sealedFixture(t)
	defer func() {
		if recover() == nil {
			t.Error("store to sealed memory did not panic")
		}
	}()
	img.Mem().Store(0x100, 1)
}

func TestDoubleSealPanics(t *testing.T) {
	img := sealedFixture(t)
	defer func() {
		if recover() == nil {
			t.Error("Seal of sealed memory did not panic")
		}
	}()
	img.Mem().Seal()
}

func TestReleaseSemantics(t *testing.T) {
	m := NewMemory()
	m.Store(8, 1)
	m.Release() // private: must be a no-op
	if m.Load(8) != 1 {
		t.Error("Release on a private memory cleared it")
	}
	img := m.Seal()
	f := img.Fork()
	f.Store(16, 2)
	f.Release()
	f.Release() // released view is empty/private again: still a no-op
	if img.Refs() != 1 {
		t.Errorf("Refs = %d, want 1", img.Refs())
	}
	img.Release()
	defer func() {
		if recover() == nil {
			t.Error("refcount underflow did not panic")
		}
	}()
	img.Release()
}

// TestConcurrentForks is the shared-base race check: goroutines fork from
// one image (and read the sealed base directly) while mutating their own
// views; every fork must match the clone-based result bit for bit.
// Meaningful under -race.
func TestConcurrentForks(t *testing.T) {
	img := sealedFixture(t)
	mutate := func(mm *Memory, k uint64) {
		mm.Store(0x100, k)
		mm.Store(0x4000_0000+(k%2)*8, k+1)
		mm.Store(wordAddr(2*pageWords+k%8), k+2)
	}
	var wg sync.WaitGroup
	for g := uint64(0); g < 8; g++ {
		wg.Add(1)
		go func(k uint64) {
			defer wg.Done()
			f := img.Fork()
			defer f.Release()
			mutate(f, k)
			want := img.Mem().Clone()
			mutate(want, k)
			if !f.Equal(want) {
				t.Errorf("fork %d diverged from clone: %#x", k, f.Diff(want, 4))
			}
			// Direct reads on the sealed base from many goroutines.
			if img.Mem().Load(0x4000_0000) != 0xfeed {
				t.Errorf("fork %d: sealed base read wrong", k)
			}
		}(g)
	}
	wg.Wait()
	if img.Refs() != 1 {
		t.Errorf("Refs = %d after concurrent forks released, want 1", img.Refs())
	}
}

// TestForkReadPathZeroAlloc is the read-path regression gate: loads on a
// forked view — arena hit, secondary window, and base-page fallback — must
// not allocate.
func TestForkReadPathZeroAlloc(t *testing.T) {
	img := sealedFixture(t)
	f := img.Fork()
	var sink uint64
	allocs := testing.AllocsPerRun(1000, func() {
		sink += f.Load(0x100)       // aliased arena
		sink += f.Load(0x0800_0000) // aliased secondary window
		sink += f.Load(0x4000_0000) // base-page fallback
		sink += f.Load(0x7000_0000) // untouched (zero) word
	})
	if allocs != 0 {
		t.Errorf("forked-view read path allocates %.1f per run, want 0", allocs)
	}
	_ = sink
}

// benchImage builds a workload-sized memory: a 1 MiB-word primary arena,
// two secondary regions, and a few sparse pages.
func benchMemory() *Memory {
	m := NewMemory()
	for w := uint64(0); w < 1<<20; w += 64 {
		m.Store(wordAddr(w), w)
	}
	m.Store(0x0800_0000, 1)
	m.Store(0x1000_0000, 2)
	m.Store(0x2000_0000, 3)
	m.Store(0x4000_0000, 4) // page map
	return m
}

// measureAllocs reports per-op heap allocations and bytes for f, keeping
// every result live across the measurement so nothing is stack-allocated.
func measureAllocs(n int, f func() *Memory) (allocs, bytes float64) {
	keep := make([]*Memory, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		keep[i] = f()
	}
	runtime.ReadMemStats(&after)
	for i := range keep {
		keep[i] = nil
	}
	return float64(after.Mallocs-before.Mallocs) / float64(n),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestForkTenTimesCheaperThanClone gates the COW design contract on a
// representative prepared image — large arena, extra flat regions, a
// sparse page-mapped tail: forking must be at least 10x cheaper than
// cloning in both allocation count and allocated bytes.
func TestForkTenTimesCheaperThanClone(t *testing.T) {
	m := benchMemory()
	for i := uint64(0); i < 16; i++ {
		m.Store(0x4000_0000+i*8*pageWords, i+1)
	}
	img := m.Seal()
	cloneAllocs, cloneBytes := measureAllocs(16, func() *Memory { return img.Mem().Clone() })
	forkAllocs, forkBytes := measureAllocs(16, img.Fork)
	t.Logf("clone %.1f allocs / %.0f B per op; fork %.1f allocs / %.0f B per op",
		cloneAllocs, cloneBytes, forkAllocs, forkBytes)
	if forkAllocs*10 > cloneAllocs {
		t.Errorf("fork is not >=10x cheaper in allocations: %.1f vs %.1f per op", forkAllocs, cloneAllocs)
	}
	if forkBytes*10 > cloneBytes {
		t.Errorf("fork is not >=10x cheaper in bytes: %.0f vs %.0f per op", forkBytes, cloneBytes)
	}
}

// BenchmarkCloneVsFork is the acceptance gate for fork setup cost: Fork
// must be ≥10× cheaper than Clone in both allocs/op and bytes/op.
func BenchmarkCloneVsFork(b *testing.B) {
	b.Run("Clone", func(b *testing.B) {
		m := benchMemory()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := m.Clone()
			_ = c
		}
	})
	b.Run("Fork", func(b *testing.B) {
		img := benchMemory().Seal()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f := img.Fork()
			f.Release()
		}
	})
	// ForkWrite includes one store per representation — the realistic
	// fan-out cost: setup plus first-touch COW of the written region.
	b.Run("ForkFirstWrite", func(b *testing.B) {
		img := benchMemory().Seal()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f := img.Fork()
			f.Store(0x4000_0000, uint64(i))
			f.Release()
		}
	})
}
