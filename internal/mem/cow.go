// Copy-on-write snapshots: Seal freezes a prepared Memory into an
// immutable, reference-counted Image, and Fork hands out overlay views
// that share the sealed storage until first write. The write barrier lives
// in Memory's store fast path (the writable-prefix length, see memory.go);
// this file holds the image lifecycle and the overlay-footprint
// instrumentation.
//
// Lifecycle and refcount rules:
//
//   - Seal(m) consumes m: the caller must not store through m afterwards
//     (stores panic) and should touch the contents only via Image.Mem().
//     Sealing a forked view first flattens it into a private copy, so
//     images never chain. Seal may record the written set of the program
//     that will run on the forks, which sizes their windows (see window).
//   - Image.Fork() increments the image's refcount and returns a view;
//     Memory.Release() on that view drops the reference and clears the
//     overlay so its storage is collectable. Release on a private memory
//     is a no-op, so callers can release unconditionally.
//   - The count is observational in a garbage-collected runtime — nothing
//     is freed at zero — but it keeps leaks visible (tests and the daemon
//     cache assert it returns to 1) and underflow panics catch
//     double-release bugs.
//
// Concurrency: a sealed image is immutable — loads on Image.Mem() never
// mutate it (the one-entry page cache is disabled when sealed) — so any
// number of forks may run on separate goroutines against one shared base.
// Each forked view itself is single-goroutine, like Memory always was.
package mem

import (
	"fmt"
	"sync/atomic"
	"unsafe"
)

// Image is a sealed, immutable memory snapshot that forks share as their
// base. Create one with Memory.Seal.
type Image struct {
	refs atomic.Int64
	m    *Memory
	// written is the written set the image was sealed with. A fork that
	// anchors, copies or grows a window over one of its runs allocates the
	// run's page-rounded extent at once instead of climbing the doubling
	// ladder; the image itself allocates nothing for it.
	written []Run
	// regrown counts forks' reallocations of private window storage to
	// grow it further.
	regrown atomic.Int64
}

// Seal freezes m into an immutable Image and returns it. The image starts
// with a reference count of 1 (the caller's). m must not be written
// afterwards — stores through it panic — and reads should go through the
// returned image. Sealing an already-sealed memory panics; sealing a
// forked view flattens the overlay into a private copy first (and drops
// the view's base reference), so an Image never points at another.
//
// written, when given, is the set of words the programs run on the forks
// store to, as ascending, disjoint runs (a profile's written set): each
// fork sizes its windows from it. Stores outside it, and forks of an image
// sealed without it, grow windows by doubling. Either way a window only
// decides where a word is stored, never what a load returns.
func (m *Memory) Seal(written ...Run) *Image {
	if m.sealed {
		panic("mem: Seal of already-sealed memory")
	}
	s := m
	if m.base != nil {
		s = m.Clone()
		m.Release()
	}
	s.sealed = true
	// Zero writable prefixes so a stray Store through the sealed memory
	// cannot take the fast path, and so forks copying these fields start
	// with every window shared.
	s.arenaW = 0
	for i := range s.extras {
		s.extras[i].w = 0
	}
	s.lastPN, s.lastPage = 0, nil
	img := &Image{m: s, written: written}
	img.refs.Store(1)
	return img
}

// Regrown returns how many times forks of the image reallocated a flat
// window's private storage to grow it after they had first made it: zero
// when the written set the image was sealed with sized every window.
func (img *Image) Regrown() int64 { return img.regrown.Load() }

// Bytes returns the bytes the image keeps resident: its flat windows, its
// page-map pages and its written set.
func (img *Image) Bytes() int64 {
	m := img.m
	words := len(m.arena) + len(m.pages)*pageWords
	for _, r := range m.extras {
		words += len(r.words)
	}
	return int64(8*words) + int64(len(img.written))*int64(unsafe.Sizeof(Run{}))
}

// Mem returns the sealed memory for read-only access (loads, Equal, Diff,
// Footprint). Stores through it panic.
func (img *Image) Mem() *Memory { return img.m }

// Refs returns the current reference count: 1 for the sealed image itself
// plus 1 per live fork.
func (img *Image) Refs() int64 { return img.refs.Load() }

// Release drops one reference (the sealer's own, when the image is done
// being forked from). Panics on underflow.
func (img *Image) Release() {
	if img.refs.Add(-1) < 0 {
		panic("mem: Image refcount underflow")
	}
}

// Fork returns a new overlay view of the image: flat windows alias the
// sealed storage with a zero writable prefix, and the page map starts
// nil — allocated on the first sparse write (loads fall back to the base
// through the nil map) — so a fork that never writes a sparse page never
// pays for one. The first store into any shared window (or base page)
// copies just that region (or page) into the view; untouched storage is
// never copied. The view holds a reference on the image until
// Memory.Release.
func (img *Image) Fork() *Memory {
	img.refs.Add(1)
	b := img.m
	f := &Memory{
		arenaBase: b.arenaBase,
		arena:     b.arena,
		base:      img,
	}
	if len(b.extras) > 0 {
		f.extras = append([]region(nil), b.extras...)
	}
	return f
}

// Release drops a forked view's reference on its base image and clears
// the view so overlay storage is collectable; the view must not be used
// afterwards. On a private (unforked, unsealed) memory it is a no-op, so
// callers may release unconditionally. Panics on a sealed memory — release
// the Image instead.
func (m *Memory) Release() {
	if m.sealed {
		panic("mem: Release of sealed memory; release the Image")
	}
	if m.base == nil {
		return
	}
	img := m.base
	*m = Memory{}
	img.Release()
}

// Forked reports whether m is an overlay view of a sealed image.
func (m *Memory) Forked() bool { return m.base != nil }

// OverlayStats describes how much private storage a forked view has
// materialized on top of its base image.
type OverlayStats struct {
	Regions int // flat windows copied (or grown) private, arena included
	Words   int // total words across those private windows
	Pages   int // overlay pages in the page map (copied from base or fresh)
}

// Overlay returns the copy-on-write materialization footprint of a forked
// view. For a private or sealed memory it returns the zero value: nothing
// is an overlay.
func (m *Memory) Overlay() OverlayStats {
	var st OverlayStats
	if m.base == nil {
		return st
	}
	if m.arenaW > 0 {
		st.Regions++
		st.Words += int(m.arenaW)
	}
	for i := range m.extras {
		if w := m.extras[i].w; w > 0 {
			st.Regions++
			st.Words += int(w)
		}
	}
	st.Pages = len(m.pages)
	return st
}

// String implements fmt.Stringer for debugging.
func (st OverlayStats) String() string {
	return fmt.Sprintf("overlay{regions=%d words=%d pages=%d}", st.Regions, st.Words, st.Pages)
}
