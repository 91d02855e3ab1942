// Package uarch implements the amnesic microarchitectural structures of
// paper Fig. 2: the SFile scratch register file that isolates recomputation
// from architectural state (Condition-I, §3.2), the Hist table buffering
// non-recomputable leaf inputs (Condition-II), and the IBuff instruction
// buffer that relaxes I-cache pressure during slice traversal. Each
// structure has a capacity with overflow semantics matching §3.5: a failed
// REC forces the matching RCMP to skip recomputation, and a body larger
// than the SFile makes its RCMP load.
//
// The register Renamer of Fig. 2 has no runtime state here: operand routing
// is resolved at compile time into each slice's recipe (compiler.Recipe),
// which is the software equivalent of the renamer's work. SFile slots are
// allocated positionally (one per recomputing instruction) as positions of
// the recipe's value frame, so only the SFile's capacity is modeled here.
package uarch

// SFile is the scratch file recomputing instructions communicate over
// (Condition-I, §3.2): the architectural register file is never touched
// during recomputation. Its entries are the result positions of a recipe's
// value frame; a slice whose body needs more entries than the SFile has
// must perform the load instead.
type SFile struct {
	capacity int
}

// NewSFile returns an SFile with the given entry count. The paper's loose
// upper bound is max-instructions-per-slice × 3 (§3.4).
func NewSFile(capacity int) *SFile {
	return &SFile{capacity: capacity}
}

// Capacity returns the entry count.
func (s *SFile) Capacity() int { return s.capacity }

// Hist buffers non-recomputable leaf inputs: up to three operand values per
// entry (max#src, §3.4), keyed by the compiler-assigned Hist ID (the
// "leaf-address" of the paper). Capacity overflow fails the REC.
//
// Hist IDs are assigned densely by the compiler (0..n-1 in slice emission
// order), so the table is a direct-indexed slice grown on demand — the
// per-REC/RCMP lookup is an array load, not a map probe.
type Hist struct {
	capacity int
	entries  []histEntry // indexed by Hist ID
	used     int         // live entry count (capacity accounting)
	// MaxUsed tracks the high-water mark of allocated entries (for the
	// §5.4 sizing analysis: "no more than 600 entries").
	MaxUsed int
}

type histEntry struct {
	vals [3]uint64
	mask uint8
	live bool
}

// NewHist returns a Hist with the given entry capacity.
func NewHist(capacity int) *Hist {
	return &Hist{capacity: capacity}
}

// Capacity returns the entry capacity.
func (h *Hist) Capacity() int { return h.capacity }

// Used returns the number of live entries.
func (h *Hist) Used() int { return h.used }

// Write checkpoints the masked values into entry id. It reports false when
// the table is full and id has no existing entry (a failed REC, §3.5).
func (h *Hist) Write(id int, vals [3]uint64, mask uint8) bool {
	if id >= len(h.entries) {
		if h.used >= h.capacity {
			return false
		}
		h.entries = append(h.entries, make([]histEntry, id+1-len(h.entries))...)
	}
	e := &h.entries[id]
	if !e.live {
		if h.used >= h.capacity {
			return false
		}
		e.live = true
		h.used++
		if h.used > h.MaxUsed {
			h.MaxUsed = h.used
		}
	}
	e.vals, e.mask = vals, mask
	return true
}

// Read returns slot `slot` of entry id; ok=false if the entry or slot was
// never recorded.
func (h *Hist) Read(id, slot int) (uint64, bool) {
	if id >= len(h.entries) {
		return 0, false
	}
	e := &h.entries[id]
	if !e.live || e.mask&(1<<uint(slot)) == 0 {
		return 0, false
	}
	return e.vals[slot], true
}

// IBuff caches recomputing instructions so repeated traversals of hot
// slices are fed from a small buffer instead of the L1 instruction cache.
// It is modeled at slice granularity with LRU replacement: a slice whose
// body fits is resident after its first traversal.
// Slice IDs are dense (a slice's position in the compiled program), so
// residency and LRU state are direct-indexed slices grown on demand: the
// per-traversal bookkeeping is two array accesses instead of map probes.
type IBuff struct {
	capacity int     // total instruction entries
	resident []int32 // body length per resident slice ID; -1 = absent
	lruClock uint64
	lru      []uint64 // last-touch clock per slice ID
	used     int
}

// NewIBuff returns an IBuff holding up to capacity recomputing instructions
// (0 disables it: every fetch misses).
func NewIBuff(capacity int) *IBuff {
	return &IBuff{capacity: capacity}
}

// Capacity returns the instruction-entry capacity.
func (b *IBuff) Capacity() int { return b.capacity }

// grow extends the per-slice tables to cover sliceID.
func (b *IBuff) grow(sliceID int) {
	for len(b.resident) <= sliceID {
		b.resident = append(b.resident, -1)
	}
	if len(b.lru) <= sliceID {
		b.lru = append(b.lru, make([]uint64, sliceID+1-len(b.lru))...)
	}
}

// Traverse records a traversal of slice sliceID with bodyLen instructions
// and returns how many instruction fetches hit in IBuff (the rest come from
// the instruction cache). A slice that does not fit is never resident.
func (b *IBuff) Traverse(sliceID, bodyLen int) (hits, misses int) {
	if sliceID >= len(b.resident) {
		b.grow(sliceID)
	}
	b.lruClock++
	b.lru[sliceID] = b.lruClock
	if n := b.resident[sliceID]; n >= 0 && int(n) == bodyLen {
		return bodyLen, 0
	}
	if bodyLen <= b.capacity {
		for b.used+bodyLen > b.capacity {
			b.evictLRU()
		}
		b.resident[sliceID] = int32(bodyLen)
		b.used += bodyLen
	}
	return 0, bodyLen
}

// evictLRU drops the least-recently-touched resident slice. Clock values
// are unique (one tick per traversal), so the minimum is unambiguous.
func (b *IBuff) evictLRU() {
	victim, best := -1, uint64(0)
	for id, n := range b.resident {
		if n < 0 {
			continue
		}
		if t := b.lru[id]; victim == -1 || t < best {
			victim, best = id, t
		}
	}
	if victim == -1 {
		return
	}
	b.used -= int(b.resident[victim])
	b.resident[victim] = -1
}

// Config sizes the amnesic structures. Defaults follow §5.4: fewer than 50
// entries suffice for SFile and IBuff on most slices; Hist needs no more
// than 600 entries across the deployed benchmarks. We size conservatively
// above those floors, as the paper's evaluation did.
type Config struct {
	SFileEntries int
	HistEntries  int
	IBuffEntries int
}

// DefaultConfig returns the evaluation sizing.
func DefaultConfig() Config {
	return Config{SFileEntries: 192, HistEntries: 600, IBuffEntries: 256}
}
