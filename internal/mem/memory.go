// Package mem implements the simulated memory system: a sparse functional
// word memory holding architectural data, and a timing/energy model of the
// cache hierarchy of paper Table 3 (L1-D and L2, set-associative, LRU,
// write-back) with per-level hit/miss statistics and non-destructive probes.
//
// The functional and timing models are decoupled, as in trace-driven
// simulators: data always comes from Memory; the caches track only tags and
// report which level would have serviced each access.
package mem

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// ErrMisaligned reports a data address that is not aligned to the 8-byte
// word size. Every simulator path that consumes program-controlled addresses
// (the classic core, the amnesic machine, slice-body loads, the differential
// tester's reference interpreter) validates with CheckAligned and returns an
// error wrapping ErrMisaligned, so a generated or hand-written program can
// never reach the accessors' internal panic.
var ErrMisaligned = errors.New("misaligned address")

// CheckAligned returns nil for a word-aligned byte address and an error
// wrapping ErrMisaligned (with the offending address) otherwise.
func CheckAligned(addr uint64) error {
	if addr&7 != 0 {
		return fmt.Errorf("%w %#x", ErrMisaligned, addr)
	}
	return nil
}

const (
	pageShift = 12 // 4096 words (32 KiB) per page
	pageWords = 1 << pageShift
	pageMask  = pageWords - 1

	// maxArenaWords caps each contiguous arena region at 4M words (32 MiB).
	// The cap comfortably covers one workload data region and the
	// generator's whole address window, while keeping distant regions
	// (workload bases are >100 MiB apart) from inflating a single
	// allocation; each such region instead anchors its own flat window.
	maxArenaWords = 1 << 22

	// maxExtraRegions bounds the secondary flat windows (beyond the
	// primary arena). Workloads use at most four disjoint data regions;
	// anything past the bound falls back to the sparse page map.
	maxExtraRegions = 3
)

type page [pageWords]uint64

// Memory is a sparse, word-granular (8-byte) functional memory. Addresses
// are byte addresses and must be 8-byte aligned; callers validate
// program-controlled addresses with CheckAligned (and surface the returned
// error) before accessing, so the accessors' panic below is a
// defense-in-depth invariant for internal misuse, not a reachable failure
// mode for bad program input.
//
// Representation: the page of the first store anchors a contiguous arena —
// a flat []uint64 indexed by (word - arenaBase) — which grows by doubling
// (capped at maxArenaWords) as nearby stores extend it; a fork of an image
// sealed with its written set sizes each window once instead (see window). Workload kernels
// and generated programs keep nearly all traffic inside one such window,
// so the hot path is a single bounds check and slice index. Stores landing
// outside every existing window anchor up to maxExtraRegions further flat
// regions (workloads lay data out in a handful of widely separated bases);
// only addresses beyond those use the page map, fronted by a one-entry
// page cache. Region growth windows are fixed at anchor time and mutually
// disjoint. Invariant: a page number inside any region's current words is
// never present in the page map (growth migrates and deletes overlapping
// pages), so every word has exactly one home.
//
// Copy-on-write: Seal freezes a Memory into an immutable Image, and
// Image.Fork returns a view whose flat windows alias the sealed base and
// whose page map starts empty, falling back to the base. The write barrier
// is the writable-prefix length (arenaW / region.w): it equals the window
// length for private storage and zero for storage aliased from a base, so
// the store fast path's single bounds check doubles as the barrier — a
// store into shared words takes storeSlow, which copies the region (or one
// page) before writing. Loads never consult the prefix, so the read path
// is identical for private and forked memories.
type Memory struct {
	pages map[uint64]*page

	arenaBase uint64 // word index of arena[0]; page-aligned
	arena     []uint64
	arenaW    uint64 // writable prefix of arena: len(arena) when private, 0 when aliased/sealed

	// extras are the secondary flat regions, in anchor order.
	extras []region

	// One-entry cache of the last page-map page touched.
	lastPN   uint64
	lastPage *page

	// base, when non-nil, is the sealed image this view was forked from:
	// flat windows with a zero writable prefix alias its storage, and
	// loads fall back to its page map for pages without a local overlay.
	base *Image
	// sealed marks the Memory inside an Image: stores panic, and the
	// one-entry page cache is never updated so concurrent forks may read
	// the shared base without synchronization.
	sealed bool
}

// region is one secondary flat window: words[0] sits at word index base,
// and the window may grow up to lim words (fixed at anchor time so
// windows never collide). w is the writable prefix (see Memory): equal to
// len(words) for private storage, 0 while words aliases a sealed base.
type region struct {
	base  uint64
	lim   uint64
	words []uint64
	w     uint64
}

// NewMemory returns an empty memory (all words read as zero).
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*page)}
}

// Load returns the word at byte address addr.
func (m *Memory) Load(addr uint64) uint64 {
	if addr&7 != 0 {
		panic(fmt.Sprintf("mem: misaligned access at %#x", addr))
	}
	w := addr >> 3
	if off := w - m.arenaBase; off < uint64(len(m.arena)) {
		return m.arena[off]
	}
	return m.loadPaged(w)
}

func (m *Memory) loadPaged(w uint64) uint64 {
	for i := range m.extras {
		r := &m.extras[i]
		if off := w - r.base; off < uint64(len(r.words)) {
			return r.words[off]
		}
	}
	pn, off := w>>pageShift, w&pageMask
	if pn == m.lastPN && m.lastPage != nil {
		return m.lastPage[off]
	}
	p := m.pages[pn]
	if p == nil && m.base != nil {
		p = m.base.m.pages[pn]
	}
	if p == nil {
		return 0
	}
	if !m.sealed {
		// The sealed base image is read concurrently by every fork; it
		// must stay bit-for-bit immutable, cache included.
		m.lastPN, m.lastPage = pn, p
	}
	return p[off]
}

// ReadWords copies the len(dst) consecutive words starting at byte address
// addr into dst. It is Load for a run of words, with one storage lookup
// per page crossed instead of one per word, whatever holds the page: a
// flat window, the page map, or the sealed base of a fork. Words of a page
// never written read as zero.
func (m *Memory) ReadWords(addr uint64, dst []uint64) {
	if addr&7 != 0 {
		panic(fmt.Sprintf("mem: misaligned access at %#x", addr))
	}
	for w := addr >> 3; len(dst) > 0; {
		off := w & pageMask
		n := min(uint64(len(dst)), pageWords-off)
		if p := m.pageAt(w >> pageShift); p != nil {
			copy(dst[:n], p[off:])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		w += n
	}
}

// ArenaViewW returns the current flat-arena window: the word index of the
// first element, the backing words, and the arena's writable-prefix
// length. Interpreter loops hold the view in locals so the L1-hit memory
// path is a subtract, compare and index with no call. Loads may bound by
// len(words); stores bound by wlen, so a store into words shared with a
// sealed base misses the cache and reaches Store's slow path, which
// performs the copy-on-write. For private memories wlen == len(words) and
// the barrier is invisible. Any store that misses the view (Store taking
// its slow path) may reallocate the window holding its address; after
// such a store the caller must re-fetch views of that window. Loads never
// invalidate a view.
func (m *Memory) ArenaViewW() (baseWord uint64, words []uint64, wlen uint64) {
	return m.arenaBase, m.arena, m.arenaW
}

// WindowForW returns the flat window holding addr — the primary arena or
// a secondary region — as the word index of its first element, its
// backing words and its writable-prefix length, or ok=false when addr
// lives in no flat region. Interpreter loops use it to refresh their
// inline window caches after a slow-path access; see ArenaViewW for the
// contract.
func (m *Memory) WindowForW(addr uint64) (baseWord uint64, words []uint64, wlen uint64, ok bool) {
	w := addr >> 3
	if off := w - m.arenaBase; off < uint64(len(m.arena)) {
		return m.arenaBase, m.arena, m.arenaW, true
	}
	for i := range m.extras {
		r := &m.extras[i]
		if off := w - r.base; off < uint64(len(r.words)) {
			return r.base, r.words, r.w, true
		}
	}
	return 0, nil, 0, false
}

// Store writes the word at byte address addr.
func (m *Memory) Store(addr, val uint64) {
	if addr&7 != 0 {
		panic(fmt.Sprintf("mem: misaligned access at %#x", addr))
	}
	w := addr >> 3
	// Bounding by arenaW (not len(arena)) is the copy-on-write barrier:
	// the two are equal for private memories, and arenaW is zero while the
	// arena aliases a sealed base.
	if off := w - m.arenaBase; off < m.arenaW {
		m.arena[off] = val
		return
	}
	m.storeSlow(w, val)
}

// storeSlow handles stores outside the current primary-arena words:
// materializing a private copy of a flat window (or one page) shared with
// a sealed base, anchoring the arena on the first store, extending a
// region whose growth window covers the address, anchoring a new secondary
// region for a fresh address cluster, and falling back to the page map
// once the region slots are exhausted. A fork whose image was sealed with
// its written set sizes each window's private storage once (see window
// and anchor).
func (m *Memory) storeSlow(w, val uint64) {
	if m.sealed {
		panic(fmt.Sprintf("mem: store to sealed image at word %#x", w<<3))
	}
	if m.base != nil {
		// Copy-on-first-write for windows aliased from the base image.
		// Whole-region granularity for flat windows: the interpreter holds
		// full-window views in locals, so a finer grain would force a read
		// barrier on every load. Untouched windows are never copied.
		if off := w - m.arenaBase; off < uint64(len(m.arena)) && off >= m.arenaW {
			m.arena = m.window(m.arenaBase, m.arena, maxArenaWords, w)
			m.arenaW = uint64(len(m.arena))
			m.arena[off] = val
			return
		}
		for i := range m.extras {
			r := &m.extras[i]
			if off := w - r.base; off < uint64(len(r.words)) && off >= r.w {
				r.words = m.window(r.base, r.words, r.lim, w)
				r.w = uint64(len(r.words))
				r.words[off] = val
				return
			}
		}
	}
	if m.arena == nil {
		base := m.anchor(w)
		m.arenaBase = base
		m.arena = m.window(base, nil, maxArenaWords, w)
		m.arenaW = uint64(len(m.arena))
		m.arena[w-base] = val
		return
	}
	if off := w - m.arenaBase; w >= m.arenaBase && off < maxArenaWords {
		if m.arenaW > 0 {
			m.regrow()
		}
		m.arena = m.window(m.arenaBase, m.arena, maxArenaWords, w)
		m.arenaW = uint64(len(m.arena))
		m.arena[off] = val
		return
	}
	for i := range m.extras {
		r := &m.extras[i]
		if off := w - r.base; w >= r.base && off < r.lim {
			if off >= uint64(len(r.words)) {
				if r.w > 0 {
					m.regrow()
				}
				r.words = m.window(r.base, r.words, r.lim, w)
				r.w = uint64(len(r.words))
			}
			r.words[off] = val
			return
		}
	}
	if len(m.extras) < maxExtraRegions {
		base := m.anchor(w)
		// Fix the growth window at anchor time, clipped so it cannot
		// collide with the primary window or any existing region.
		lim := uint64(maxArenaWords)
		if m.arenaBase > base {
			if d := m.arenaBase - base; d < lim {
				lim = d
			}
		}
		for i := range m.extras {
			if b := m.extras[i].base; b > base && b-base < lim {
				lim = b - base
			}
		}
		r := region{base: base, lim: lim}
		r.words = m.window(base, nil, lim, w)
		r.w = uint64(len(r.words))
		r.words[w-base] = val
		m.extras = append(m.extras, r)
		return
	}
	pn, off := w>>pageShift, w&pageMask
	if m.pages == nil {
		// Forked views defer the map until the first sparse write.
		m.pages = make(map[uint64]*page)
	}
	p := m.pages[pn]
	if p == nil {
		// Page-granular copy-on-write: overlay one page from the base.
		if m.base != nil {
			if bp := m.base.m.pages[pn]; bp != nil {
				cp := *bp
				p = &cp
				m.pages[pn] = p
			}
		}
		if p == nil {
			if val == 0 {
				return
			}
			p = new(page)
			m.pages[pn] = p
		}
	}
	m.lastPN, m.lastPage = pn, p
	p[off] = val
}

// run returns the run of the base image's written set that holds word w.
// A memory that is not a fork, or whose image was sealed without its
// written set, knows no runs.
func (m *Memory) run(w uint64) (Run, bool) {
	if m.base == nil {
		return Run{}, false
	}
	return FindRun(m.base.written, w)
}

// anchor returns the word index at which a new flat window holding word w
// starts: the first page of the written run holding w, so that one window
// holds the whole run even when the first store lands above its first
// page, unless another window's growth range reaches into the pages
// between, or the window could not reach w; otherwise w's own page.
func (m *Memory) anchor(w uint64) uint64 {
	pg := w &^ uint64(pageMask)
	r, ok := m.run(w)
	lo := r.Start &^ uint64(pageMask)
	if !ok || lo == pg || w-lo >= maxArenaWords {
		return pg
	}
	if m.arena != nil && m.arenaBase < pg && m.arenaBase+maxArenaWords > lo {
		return pg
	}
	for i := range m.extras {
		if x := &m.extras[i]; x.base < pg && x.base+x.lim > lo {
			return pg
		}
	}
	return lo
}

// regrow counts, on a fork's image, one reallocation of a window's private
// storage to grow it: the image's written set did not size it.
func (m *Memory) regrow() {
	if m.base != nil {
		m.base.regrown.Add(1)
	}
}

// window returns new private storage for the flat window at base, with
// growth limit lim (a page multiple), that holds word w (w-base < lim). A
// fork sizes it once from its image's written set: out to the page-rounded
// end of the run holding w, clipped to lim. Otherwise the window keeps its
// length when w already fits (a copy-on-write copy) or grows. Callers set
// the writable prefix to the new length.
func (m *Memory) window(base uint64, words []uint64, lim, w uint64) []uint64 {
	if r, ok := m.run(w); ok {
		return m.resize(base, words, max(uint64(len(words)), min(lim, (r.End()+pageMask)&^uint64(pageMask)-base)))
	}
	if w-base < uint64(len(words)) {
		return m.resize(base, words, uint64(len(words)))
	}
	return m.grown(base, words, lim, w)
}

// grown extends a flat window to hold word w by a doubling ladder from one
// page, capped at lim.
func (m *Memory) grown(base uint64, words []uint64, lim, w uint64) []uint64 {
	newLen := max(uint64(len(words)), pageWords)
	for newLen <= w-base {
		newLen *= 2
	}
	// When extending an established region, overshoot one extra doubling:
	// a region that keeps creeping upward (a kernel streaming through its
	// output array) then skips every other rung of the growth ladder,
	// cutting the total words zeroed and copied across its lifetime by
	// about a third. Unwritten words read as zero either way, and resize
	// keeps any swallowed page-map pages visible, so a wider window is
	// semantically identical to a tight one. Fresh anchors stay at the
	// minimal size: address clusters that never grow shouldn't pay for
	// speculative width.
	if len(words) > 0 && newLen < lim/2 {
		newLen *= 2
	}
	return m.resize(base, words, min(newLen, lim))
}

// resize returns private storage of n words for the flat window at base:
// words copied in, and any page-map pages the wider window swallows
// migrated (base-image pages are copied, never deleted).
func (m *Memory) resize(base uint64, words []uint64, n uint64) []uint64 {
	na := make([]uint64, n)
	copy(na, words)
	basePN := base >> pageShift
	for pn := basePN + (uint64(len(words)) >> pageShift); pn < basePN+(n>>pageShift); pn++ {
		if p := m.pages[pn]; p != nil {
			copy(na[(pn-basePN)<<pageShift:], p[:])
			delete(m.pages, pn)
		} else if m.base != nil {
			if p := m.base.m.pages[pn]; p != nil {
				copy(na[(pn-basePN)<<pageShift:], p[:])
			}
		}
	}
	m.lastPN, m.lastPage = 0, nil
	return na
}

// LoadF returns the word at addr interpreted as a float64.
func (m *Memory) LoadF(addr uint64) float64 { return math.Float64frombits(m.Load(addr)) }

// StoreF writes a float64 at addr.
func (m *Memory) StoreF(addr uint64, f float64) { m.Store(addr, math.Float64bits(f)) }

// arenaPages returns the arena length in whole pages (the arena is always
// a page multiple).
func (m *Memory) arenaPages() uint64 { return uint64(len(m.arena)) >> pageShift }

// pageAt returns the backing words for page pn regardless of
// representation — a view into the arena when pn falls inside its window,
// the sparse page otherwise (overlay pages shadow base-image pages) — or
// nil when the page has never been written.
func (m *Memory) pageAt(pn uint64) *page {
	if m.arena != nil {
		basePN := m.arenaBase >> pageShift
		if pn >= basePN && pn < basePN+m.arenaPages() {
			return (*page)(m.arena[(pn-basePN)<<pageShift:])
		}
	}
	for i := range m.extras {
		r := &m.extras[i]
		basePN := r.base >> pageShift
		if pn >= basePN && pn < basePN+uint64(len(r.words))>>pageShift {
			return (*page)(r.words[(pn-basePN)<<pageShift:])
		}
	}
	if p := m.pages[pn]; p != nil {
		return p
	}
	if m.base != nil {
		return m.base.m.pages[pn]
	}
	return nil
}

// windowCovers reports whether page pn falls inside a flat window (windows
// are page-aligned with page-multiple lengths, so covering the first word
// covers the whole page).
func (m *Memory) windowCovers(pn uint64) bool {
	w := pn << pageShift
	if off := w - m.arenaBase; m.arena != nil && off < uint64(len(m.arena)) {
		return true
	}
	for i := range m.extras {
		r := &m.extras[i]
		if off := w - r.base; off < uint64(len(r.words)) {
			return true
		}
	}
	return false
}

// eachPN visits every page number with backing storage (arena pages first,
// then sparse pages, then unshadowed base-image pages); visit returning
// false stops the walk. Each pn is visited at most once.
func (m *Memory) eachPN(visit func(pn uint64) bool) {
	if m.arena != nil {
		basePN := m.arenaBase >> pageShift
		for i := uint64(0); i < m.arenaPages(); i++ {
			if !visit(basePN + i) {
				return
			}
		}
	}
	for ri := range m.extras {
		r := &m.extras[ri]
		basePN := r.base >> pageShift
		for i := uint64(0); i < uint64(len(r.words))>>pageShift; i++ {
			if !visit(basePN + i) {
				return
			}
		}
	}
	for pn := range m.pages {
		if !visit(pn) {
			return
		}
	}
	if m.base != nil {
		for pn := range m.base.m.pages {
			// Window-covered base pages were either migrated during window
			// growth or shadowed at fork time; overlay pages shadow too.
			if m.pages[pn] != nil || m.windowCovers(pn) {
				continue
			}
			if !visit(pn) {
				return
			}
		}
	}
}

// EachPage calls visit with the first word index and the words of every
// page with backing storage, in ascending address order: each page of a
// flat window, each page-map page and, for a fork, each base page it does
// not shadow. Words never written read as zero; visit must not modify
// words or m.
func (m *Memory) EachPage(visit func(w uint64, words []uint64)) {
	var pns []uint64
	m.eachPN(func(pn uint64) bool {
		pns = append(pns, pn)
		return true
	})
	slices.Sort(pns)
	for _, pn := range pns {
		visit(pn<<pageShift, m.pageAt(pn)[:])
	}
}

// Clone returns a deep copy (used by the verifier to snapshot initial
// state). Cloning a forked view flattens it: the clone is fully private,
// holds no reference on the base image, and compares Equal to the fork.
func (m *Memory) Clone() *Memory {
	c := NewMemory()
	if m.arena != nil {
		c.arenaBase = m.arenaBase
		c.arena = append([]uint64(nil), m.arena...)
		c.arenaW = uint64(len(c.arena))
	}
	if len(m.extras) > 0 {
		c.extras = make([]region, len(m.extras))
		for i, r := range m.extras {
			words := append([]uint64(nil), r.words...)
			c.extras[i] = region{base: r.base, lim: r.lim, words: words, w: uint64(len(words))}
		}
	}
	for pn, p := range m.pages {
		cp := *p
		c.pages[pn] = &cp
	}
	if m.base != nil {
		for pn, p := range m.base.m.pages {
			if c.pages[pn] != nil || m.windowCovers(pn) {
				continue
			}
			cp := *p
			c.pages[pn] = &cp
		}
	}
	return c
}

// Equal reports whether two memories hold identical contents (regardless
// of arena-versus-page representation).
func (m *Memory) Equal(o *Memory) bool {
	return m.diff(o, 1) == nil
}

// Diff returns up to max differing byte addresses between m and o, sorted.
func (m *Memory) Diff(o *Memory, max int) []uint64 {
	return m.diff(o, max)
}

func (m *Memory) diff(o *Memory, max int) []uint64 {
	var out []uint64
	seen := make(map[uint64]bool)
	collect := func(a, b *Memory) {
		a.eachPN(func(pn uint64) bool {
			if seen[pn] {
				return true
			}
			seen[pn] = true
			p, q := a.pageAt(pn), b.pageAt(pn)
			for off := 0; off < pageWords; off++ {
				var pv, qv uint64
				if p != nil {
					pv = p[off]
				}
				if q != nil {
					qv = q[off]
				}
				if pv != qv {
					out = append(out, ((pn<<pageShift)|uint64(off))<<3)
					if len(out) >= max {
						return false
					}
				}
			}
			return true
		})
	}
	collect(m, o)
	if len(out) < max {
		collect(o, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	if len(out) > max {
		out = out[:max]
	}
	return out
}

// Footprint returns the number of distinct words ever stored (an upper bound
// on the touched working set; zero stores to untouched pages don't count).
func (m *Memory) Footprint() int {
	n := 0
	m.eachPN(func(pn uint64) bool {
		p := m.pageAt(pn)
		for _, w := range p {
			if w != 0 {
				n++
			}
		}
		return true
	})
	return n
}
