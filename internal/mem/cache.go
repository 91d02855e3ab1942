package mem

import (
	"fmt"

	"github.com/amnesiac-sim/amnesiac/internal/energy"
)

// CacheConfig describes one cache level.
type CacheConfig struct {
	Name      string
	SizeBytes int
	Assoc     int
	LineBytes int
}

// Validate checks the configuration for structural sanity.
func (c CacheConfig) Validate() error {
	if c.SizeBytes <= 0 || c.Assoc <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("cache %s: non-positive geometry %+v", c.Name, c)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache %s: line size %d not a power of two", c.Name, c.LineBytes)
	}
	sets := c.SizeBytes / (c.Assoc * c.LineBytes)
	if sets <= 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d not a positive power of two", c.Name, sets)
	}
	return nil
}

// Cache is one set-associative, LRU, write-back, write-allocate cache level
// tracking tags only (data is served by Memory).
//
// The ways of a set live in parallel arrays rather than an array of line
// structs: the tag-match scan — the operation every simulated load, store,
// and policy probe performs — walks assoc consecutive uint64s (one host
// cache line for 8-way sets) and touches the LRU/dirty arrays only on a
// hit or during victim selection. Tags are stored biased by one so zero
// means "invalid way" and the scan needs no separate valid-bit check; real
// tags are at most 64-lineShift-setShift bits, so the bias cannot wrap.
type Cache struct {
	cfg       CacheConfig
	tags      []uint64 // tag+1 per way, 0 = invalid; indexed set*assoc+way
	dirty     []bool
	lru       []uint64 // larger = more recently used
	assoc     int
	lineShift uint
	setShift  uint
	setMask   uint64
	clock     uint64

	// Stats.
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// NewCache builds a cache; it panics if the configuration is invalid
// (configurations are static and covered by tests).
func NewCache(cfg CacheConfig) *Cache {
	if err := cfg.Validate(); err != nil {
		panic("mem: " + err.Error())
	}
	nsets := cfg.SizeBytes / (cfg.Assoc * cfg.LineBytes)
	nways := nsets * cfg.Assoc
	shift := uint(0)
	for 1<<shift < cfg.LineBytes {
		shift++
	}
	setShift := uint(0)
	for 1<<setShift < nsets {
		setShift++
	}
	return &Cache{
		cfg:  cfg,
		tags: make([]uint64, nways), dirty: make([]bool, nways), lru: make([]uint64, nways),
		assoc: cfg.Assoc, lineShift: shift, setShift: setShift, setMask: uint64(nsets - 1),
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

// locate returns the index of the first way of addr's set and the biased
// tag value a resident line would carry.
func (c *Cache) locate(addr uint64) (base int, want uint64) {
	lineAddr := addr >> c.lineShift
	return int(lineAddr&c.setMask) * c.assoc, lineAddr>>c.setShift + 1
}

// Contains reports whether addr hits without touching LRU state or stats.
func (c *Cache) Contains(addr uint64) bool {
	base, want := c.locate(addr)
	for _, t := range c.tags[base : base+c.assoc] {
		if t == want {
			return true
		}
	}
	return false
}

// ProbeHit is the hit-only half of Access: it scans for a tag match with
// no victim selection or allocation, updating LRU and hit stats exactly as
// Access would on a hit. On a miss it changes nothing except the LRU clock
// (which advances once more when the caller follows up with Access; clock
// values only matter relatively, so the extra tick cannot reorder any LRU
// decision) and counts nothing — the follow-up Access records the miss.
func (c *Cache) ProbeHit(addr uint64, write bool) bool {
	base, want := c.locate(addr)
	c.clock++
	for i := base; i < base+c.assoc; i++ {
		if c.tags[i] == want {
			return c.probeUpdate(i, write)
		}
	}
	return false
}

// probeUpdate applies the hit-path bookkeeping for way i. Split from
// ProbeHit so the scan itself stays within the inlining budget — the
// probe is the single hottest call in both interpretation and replay.
func (c *Cache) probeUpdate(i int, write bool) bool {
	c.lru[i] = c.clock
	if write {
		c.dirty[i] = true
	}
	c.Hits++
	return true
}

// Access looks up addr, updating LRU and stats. On a miss it allocates the
// line, evicting the LRU way; evictedDirty reports whether a dirty victim
// was written back. write marks the (possibly newly allocated) line dirty.
func (c *Cache) Access(addr uint64, write bool) (hit, evictedDirty bool) {
	base, want := c.locate(addr)
	c.clock++
	victim := base
	for i := base; i < base+c.assoc; i++ {
		if c.tags[i] == want {
			c.lru[i] = c.clock
			if write {
				c.dirty[i] = true
			}
			c.Hits++
			return true, false
		}
		if c.tags[i] == 0 {
			victim = i
		} else if c.tags[victim] != 0 && c.lru[i] < c.lru[victim] {
			victim = i
		}
	}
	c.Misses++
	if c.tags[victim] != 0 {
		c.Evictions++
		evictedDirty = c.dirty[victim]
	}
	c.tags[victim], c.dirty[victim], c.lru[victim] = want, write, c.clock
	return false, evictedDirty
}

// Invalidate drops the line containing addr if present, returning whether it
// was dirty.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	base, want := c.locate(addr)
	for i := base; i < base+c.assoc; i++ {
		if c.tags[i] == want {
			d := c.dirty[i]
			c.tags[i], c.dirty[i], c.lru[i] = 0, false, 0
			return true, d
		}
	}
	return false, false
}

// DirtyLines returns the number of currently dirty lines (for final flush
// accounting).
func (c *Cache) DirtyLines() int {
	n := 0
	for i, t := range c.tags {
		if t != 0 && c.dirty[i] {
			n++
		}
	}
	return n
}

// Clone returns a deep copy: tags, LRU state, clock and stats all carry
// over, so a run resumed on the clone services exactly the hit/miss
// sequence the original would have.
func (c *Cache) Clone() *Cache {
	nc := *c
	nc.tags = append([]uint64(nil), c.tags...)
	nc.dirty = append([]bool(nil), c.dirty...)
	nc.lru = append([]uint64(nil), c.lru...)
	return &nc
}

// HierarchyConfig configures the two-level data hierarchy.
type HierarchyConfig struct {
	L1 CacheConfig
	L2 CacheConfig
}

// DefaultHierarchyConfig mirrors paper Table 3: L1-D 32KB 8-way, L2 512KB
// 8-way, 64-byte lines.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1: CacheConfig{Name: "L1-D", SizeBytes: 32 << 10, Assoc: 8, LineBytes: 64},
		L2: CacheConfig{Name: "L2", SizeBytes: 512 << 10, Assoc: 8, LineBytes: 64},
	}
}

// AccessResult describes one data access through the hierarchy.
type AccessResult struct {
	Level energy.Level // where the access was serviced
	// WritebackL2 / WritebackMem count dirty-victim writebacks triggered at
	// each boundary (L1→L2 and L2→Mem).
	WritebackL2  int
	WritebackMem int
}

// Hierarchy is the two-level write-back data-cache hierarchy backed by main
// memory. It is inclusive in the simple sense that L1 misses allocate in
// both L1 and L2.
type Hierarchy struct {
	L1 *Cache
	L2 *Cache
	// Per-level serviced-access counts (loads+stores) for PrLi statistics.
	Serviced [energy.NumLevels]uint64
}

// NewHierarchy builds the hierarchy.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	return &Hierarchy{L1: NewCache(cfg.L1), L2: NewCache(cfg.L2)}
}

// NewDefaultHierarchy builds the paper Table 3 hierarchy.
func NewDefaultHierarchy() *Hierarchy { return NewHierarchy(DefaultHierarchyConfig()) }

// Access performs a load (write=false) or store (write=true) at addr. The
// common case — an L1 hit — takes a single allocation-free tag probe; only
// misses walk the levels with victim bookkeeping.
func (h *Hierarchy) Access(addr uint64, write bool) AccessResult {
	if h.L1.ProbeHit(addr, write) {
		h.Serviced[energy.L1]++
		return AccessResult{Level: energy.L1}
	}
	return h.AccessMiss(addr, write)
}

// AccessMiss is the general level walk, taken after an L1 ProbeHit miss.
// Interpreter loops that inline the L1 probe call this directly; combined
// with a preceding failed probe it is state- and stats-identical to Access.
func (h *Hierarchy) AccessMiss(addr uint64, write bool) AccessResult {
	var r AccessResult
	if hit, evictedDirty := h.L1.Access(addr, write); hit {
		r.Level = energy.L1
		h.Serviced[energy.L1]++
		return r
	} else if evictedDirty {
		// Dirty L1 victim written back into L2. The victim line is already
		// allocated in L2 under inclusive allocation, but touching it would
		// perturb L2 LRU for an off-critical-path write; charge energy only.
		r.WritebackL2++
	}
	if hit, evictedDirty := h.L2.Access(addr, write); hit {
		r.Level = energy.L2
		h.Serviced[energy.L2]++
		return r
	} else if evictedDirty {
		r.WritebackMem++
	}
	r.Level = energy.Mem
	h.Serviced[energy.Mem]++
	return r
}

// Peek returns the level that would service addr right now, with no side
// effects on cache state or statistics. Used by the oracle policies.
func (h *Hierarchy) Peek(addr uint64) energy.Level {
	if h.L1.Contains(addr) {
		return energy.L1
	}
	if h.L2.Contains(addr) {
		return energy.L2
	}
	return energy.Mem
}

// Clone returns a deep copy of both levels and the serviced counters. The
// checkpoint engine snapshots the hierarchy with it so a restarted run's
// cache behavior — and therefore its energy account — is bit-identical to
// the uninterrupted run's.
func (h *Hierarchy) Clone() *Hierarchy {
	return &Hierarchy{L1: h.L1.Clone(), L2: h.L2.Clone(), Serviced: h.Serviced}
}
