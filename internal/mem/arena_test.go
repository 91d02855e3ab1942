package mem

import (
	"slices"
	"testing"
)

// addr builds a byte address from a word index.
func wordAddr(w uint64) uint64 { return w << 3 }

func TestPageBoundaryAccesses(t *testing.T) {
	m := NewMemory()
	// Last word of page 0, first word of page 1, and the pair spanning the
	// initial one-page arena into its first growth step.
	boundary := []uint64{
		wordAddr(pageWords - 1),
		wordAddr(pageWords),
		wordAddr(2*pageWords - 1),
		wordAddr(2 * pageWords),
	}
	for i, a := range boundary {
		m.Store(a, uint64(i)+100)
	}
	for i, a := range boundary {
		if got := m.Load(a); got != uint64(i)+100 {
			t.Errorf("Load(%#x) = %d, want %d", a, got, i+100)
		}
	}
	// Neighbouring words must be untouched.
	if m.Load(wordAddr(pageWords-2)) != 0 || m.Load(wordAddr(2*pageWords+1)) != 0 {
		t.Error("boundary stores leaked into neighbouring words")
	}
}

// TestMultiRegionWorkloadLayout exercises the workload-style address layout:
// a handful of widely separated bases, each beyond the primary arena's reach.
// The first four anchor flat windows; the fifth overflows to the page map.
func TestMultiRegionWorkloadLayout(t *testing.T) {
	m := NewMemory()
	bases := []uint64{0x0100_0000, 0x0800_0000, 0x1000_0000, 0x2000_0000, 0x4000_0000}
	for i, b := range bases {
		m.Store(b, uint64(i)+1)
		m.Store(b+8*1024, uint64(i)+51) // same cluster, later page
	}
	for i, b := range bases {
		if m.Load(b) != uint64(i)+1 || m.Load(b+8*1024) != uint64(i)+51 {
			t.Errorf("cluster %d (%#x) lost its values", i, b)
		}
	}
	if len(m.extras) != maxExtraRegions {
		t.Errorf("extras = %d regions, want %d", len(m.extras), maxExtraRegions)
	}
	// The first four clusters live in flat windows; the fifth does not.
	for i, b := range bases[:4] {
		if _, _, _, ok := m.WindowForW(b); !ok {
			t.Errorf("cluster %d (%#x) not in any flat window", i, b)
		}
	}
	if _, _, _, ok := m.WindowForW(bases[4]); ok {
		t.Error("fifth cluster unexpectedly in a flat window")
	}
	if len(m.pages) == 0 {
		t.Error("fifth cluster did not fall back to the page map")
	}
}

// TestWindowViewStaleness locks the re-fetch contract of ArenaViewW and
// WindowForW: a store beyond the held view grows the backing array, and
// only a re-fetched view observes the extension.
func TestWindowViewStaleness(t *testing.T) {
	m := NewMemory()
	m.Store(0, 7)
	base, view, wlen := m.ArenaViewW()
	if base != 0 || uint64(len(view)) != pageWords || wlen != pageWords {
		t.Fatalf("initial view base %d len %d wlen %d, want 0 and %d", base, len(view), wlen, pageWords)
	}
	// Store past the view: slow path, arena reallocates.
	far := wordAddr(4 * pageWords)
	m.Store(far, 9)
	if uint64(len(view)) != pageWords {
		t.Error("held view must not change length")
	}
	base2, view2, wlen2 := m.ArenaViewW()
	if base2 != 0 || uint64(len(view2)) <= uint64(len(view)) || wlen2 != uint64(len(view2)) {
		t.Fatalf("re-fetched view base %d len %d wlen %d, want a grown private window at base 0", base2, len(view2), wlen2)
	}
	if view2[0] != 7 || view2[4*pageWords] != 9 {
		t.Error("grown arena lost values")
	}
	gotBase, words, _, ok := m.WindowForW(far)
	if !ok || gotBase != 0 || words[far>>3] != 9 {
		t.Errorf("WindowForW(%#x) = (%d, len %d, %v), want the primary window", far, gotBase, len(words), ok)
	}
}

// TestSnapshotRestoreRoundTrip snapshots a memory whose contents span all
// three representations (primary arena, secondary regions, page map),
// mutates the original in each representation, and checks the snapshot is
// an independent, faithful copy.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	m := NewMemory()
	mutate := func(mm *Memory, v uint64) {
		mm.Store(0x100, v)           // primary arena
		mm.Store(0x0800_0000, v+1)   // secondary region
		mm.Store(0x4000_0000, v+2)   // page map (after slots exhausted below)
		mm.Store(0x4000_0000+8, v+3) // same sparse page
	}
	// Exhaust the flat-region slots so 0x4000_0000 really is page-mapped.
	for _, b := range []uint64{0x100, 0x0800_0000, 0x1000_0000, 0x2000_0000} {
		m.Store(b, 1)
	}
	mutate(m, 10)
	snap := m.Clone()
	if !m.Equal(snap) || snap.Footprint() != m.Footprint() {
		t.Fatal("snapshot differs from original")
	}

	mutate(m, 20)
	if m.Equal(snap) {
		t.Fatal("mutation did not diverge from snapshot")
	}
	d := m.Diff(snap, 16)
	if len(d) != 4 {
		t.Fatalf("Diff found %d words (%#x), want 4", len(d), d)
	}
	if snap.Load(0x100) != 10 || snap.Load(0x4000_0000) != 12 {
		t.Error("mutating the original leaked into the snapshot")
	}

	// Restore: replaying the same mutation on a fresh clone of the snapshot
	// reconverges with the original, bit for bit.
	restore := snap.Clone()
	mutate(restore, 20)
	if !restore.Equal(m) {
		t.Errorf("restore+replay differs from original: %#x", restore.Diff(m, 8))
	}
}

// TestSnapshotRestoreAcrossWindowMigration extends the round-trip to the
// page-map spill case: a snapshot taken while a page still lives in the
// sparse map must stay faithful after the original's window grows over that
// page and migrates it into the flat arena. Store() can no longer reach the
// spilled state directly (a store inside a window's growth range always
// extends the window), so the test plants the page map entry itself —
// exactly the state grown()'s migration loop defends against — and checks
// the every-word-has-one-home invariant is restored.
func TestSnapshotRestoreAcrossWindowMigration(t *testing.T) {
	m := NewMemory()
	m.Store(wordAddr(0x20), 1) // anchor the primary arena: one page at base 0
	if got := m.arenaPages(); got != 1 {
		t.Fatalf("arena = %d pages, want 1", got)
	}

	// Spill a page into the map inside the primary window's growth range.
	spillW := uint64(2*pageWords + 5)
	p := new(page)
	p[spillW&pageMask] = 0xfeed
	m.pages[spillW>>pageShift] = p
	if m.Load(wordAddr(spillW)) != 0xfeed {
		t.Fatal("spilled page not visible through the page-map path")
	}

	// Snapshot with the mixed representation, then grow the original's arena
	// past the spilled page: grown() must swallow and delete it.
	snap := m.Clone()
	if !snap.Equal(m) {
		t.Fatal("snapshot differs before migration")
	}
	growW := uint64(3 * pageWords)
	m.Store(wordAddr(growW), 0xbeef)
	if len(m.pages) != 0 {
		t.Errorf("migration left %d pages in the map (words must have one home)", len(m.pages))
	}
	if _, _, _, ok := m.WindowForW(wordAddr(spillW)); !ok {
		t.Error("migrated page not reachable through the flat window")
	}
	if m.Load(wordAddr(spillW)) != 0xfeed {
		t.Error("migration lost the spilled value")
	}

	// The snapshot must be untouched, and Diff must see exactly the one new
	// store despite the representations now differing.
	if snap.Load(wordAddr(growW)) != 0 || snap.Load(wordAddr(spillW)) != 0xfeed {
		t.Error("migration of the original leaked into the snapshot")
	}
	if d := m.Diff(snap, 16); len(d) != 1 || d[0] != wordAddr(growW) {
		t.Fatalf("Diff across representations = %#x, want only %#x", d, wordAddr(growW))
	}

	// Restore: replaying the store on the snapshot triggers the snapshot's
	// own migration and reconverges bit-for-bit.
	snap.Store(wordAddr(growW), 0xbeef)
	if !snap.Equal(m) || !m.Equal(snap) {
		t.Errorf("restore+replay differs across migration: %#x", snap.Diff(m, 8))
	}
	if snap.Footprint() != m.Footprint() {
		t.Errorf("Footprint %d vs %d after both migrated", snap.Footprint(), m.Footprint())
	}
}

// TestEqualAcrossRepresentations: the same contents written in different
// orders land in different representations (which base anchors the primary
// arena depends on store order); Equal, Diff and Footprint must not care.
func TestEqualAcrossRepresentations(t *testing.T) {
	bases := []uint64{0x0100_0000, 0x0800_0000, 0x1000_0000, 0x2000_0000, 0x4000_0000}
	fill := func(order []uint64) *Memory {
		m := NewMemory()
		for _, b := range order {
			m.Store(b, b^0xABCD)
			m.Store(b+4096, b+1)
		}
		return m
	}
	fwd := fill(bases)
	rev := fill([]uint64{bases[4], bases[3], bases[2], bases[1], bases[0]})
	if fwd.arenaBase == rev.arenaBase {
		t.Fatal("test expects different anchors for different store orders")
	}
	if !fwd.Equal(rev) || !rev.Equal(fwd) {
		t.Errorf("same contents, different representation: Diff = %#x", fwd.Diff(rev, 8))
	}
	if fwd.Footprint() != rev.Footprint() {
		t.Errorf("Footprint %d vs %d across representations", fwd.Footprint(), rev.Footprint())
	}
}

// TestStoreZeroToUntouchedPage: once the flat-region slots are exhausted, a
// zero store to a never-touched page must not allocate backing storage.
func TestStoreZeroToUntouchedPage(t *testing.T) {
	m := NewMemory()
	for _, b := range []uint64{0x100, 0x0800_0000, 0x1000_0000, 0x2000_0000} {
		m.Store(b, 1)
	}
	pagesBefore := len(m.pages)
	m.Store(0x7000_0000, 0)
	if len(m.pages) != pagesBefore {
		t.Error("zero store to untouched page allocated a page")
	}
	if m.Load(0x7000_0000) != 0 {
		t.Error("untouched word must read zero")
	}
}

// TestReadWordsMatchesLoad: a bulk read equals word-by-word Loads wherever
// the words live — the primary arena, secondary regions, the page map, a
// fork's copied windows, overlay pages and sealed base, and pages never
// written — and across the boundaries between them.
func TestReadWordsMatchesLoad(t *testing.T) {
	m := NewMemory()
	bases := []uint64{0x0100_0000, 0x0800_0000, 0x1000_0000, 0x2000_0000, 0x4000_0000}
	for i, b := range bases {
		for k := uint64(0); k < 3*pageWords; k += 7 {
			m.Store(b+8*k, uint64(i)<<32|k)
		}
	}
	img := m.Seal()
	fork := img.Fork()
	defer fork.Release()
	for i, b := range bases {
		fork.Store(b+8*5, 1000+uint64(i))
		fork.Store(b+8*(3*pageWords+1), 77)
	}
	for _, mm := range []*Memory{img.Mem(), fork} {
		for _, b := range bases {
			for _, start := range []uint64{b - 8*5, b, b + 8*(pageWords-3)} {
				for _, n := range []int{1, 9, pageWords + 5, 3*pageWords + 20} {
					got := make([]uint64, n)
					for k := range got {
						got[k] = 0xbad
					}
					mm.ReadWords(start, got)
					for k, v := range got {
						if want := mm.Load(start + 8*uint64(k)); v != want {
							t.Fatalf("ReadWords(%#x, %d)[%d] = %#x, Load = %#x", start, n, k, v, want)
						}
					}
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("misaligned ReadWords did not panic")
		}
	}()
	fork.ReadWords(bases[0]+4, make([]uint64, 1))
}

// TestEachPageAscending: EachPage visits every page holding data once, in
// ascending address order, whatever holds it — the arena, a region
// anchored below it, the page map, or a fork's base — and each page's
// words read as Load does.
func TestEachPageAscending(t *testing.T) {
	m := NewMemory()
	// The arena anchors first at a high base, a region below it next, then
	// two more regions, and the last two clusters fall to the page map.
	bases := []uint64{0x4000_0000, 0x0100_0000, 0x2000_0000, 0x3000_0000, 0x5000_0000, 0x0800_0000}
	var stored []uint64 // word indices
	for i, b := range bases {
		for k := uint64(0); k < 2*pageWords; k += 1001 {
			m.Store(b+8*k, uint64(i)<<32|k|1)
			stored = append(stored, b>>3+k)
		}
	}
	if len(m.pages) == 0 {
		t.Fatal("no cluster fell to the page map")
	}
	img := m.Seal()
	fork := img.Fork()
	defer fork.Release()
	fork.Store(bases[4]+8, 5) // overlays one base page-map page
	slices.Sort(stored)
	forked := append([]uint64{bases[4]>>3 + 1}, stored...)
	slices.Sort(forked)
	for _, tc := range []struct {
		mm     *Memory
		stored []uint64
	}{{img.Mem(), stored}, {fork, forked}} {
		mm, stored := tc.mm, tc.stored
		var got []uint64
		last := uint64(0)
		mm.EachPage(func(w uint64, words []uint64) {
			if len(got) > 0 && w <= last {
				t.Fatalf("page at word %#x visited after %#x", w, last)
			}
			last = w
			for i, v := range words {
				if want := mm.Load(8 * (w + uint64(i))); v != want {
					t.Fatalf("EachPage word %#x = %#x, Load = %#x", w+uint64(i), v, want)
				}
				if v != 0 {
					got = append(got, w+uint64(i))
				}
			}
		})
		if !slices.Equal(got, stored) {
			t.Errorf("EachPage found %d nonzero words, want the %d stored", len(got), len(stored))
		}
	}
}
