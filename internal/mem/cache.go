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
	cfg   CacheConfig
	tags  []uint64 // tag+1 per way, 0 = invalid; indexed set*assoc+way
	dirty []bool
	// lru holds each way's last-use clock, larger = more recently used.
	// Every use ticks the clock before it stamps one way, so a valid way's
	// stamp is at least 1 and unique in its cache, and an invalid way's
	// is 0: the least recently used way, preferring the last invalid one,
	// is the last way with the smallest stamp.
	lru       []uint64
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

// find returns the index of the way holding addr's line, or -1, without
// touching LRU state or stats.
func (c *Cache) find(addr uint64) int {
	base, want := c.locate(addr)
	for i := base; i < base+c.assoc; i++ {
		if c.tags[i] == want {
			return i
		}
	}
	return -1
}

// ProbeHit is the hit-only half of Access: it scans for a tag match with
// no victim selection or allocation, updating LRU and hit stats exactly as
// Access would on a hit. On a miss it changes nothing except the LRU clock
// (which advances once more when the caller follows up with Access; clock
// values only matter relatively, so the extra tick cannot reorder any LRU
// decision) and counts nothing — the follow-up Access records the miss.
func (c *Cache) ProbeHit(addr uint64, write bool) bool {
	c.clock++
	if i := c.find(addr); i >= 0 {
		return c.probeUpdate(i, write)
	}
	return false
}

// probeUpdate applies the hit bookkeeping for way i at the current clock:
// the one rule ProbeHit, Access and Hierarchy.AccessAt share. (ProbeHit
// itself is over the compiler's inlining budget, so interpreter loops call
// it.)
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
	tags, lru := c.tags[base:base+c.assoc], c.lru[base:base+c.assoc]
	way, oldest := 0, lru[0]
	for i, t := range tags {
		if t == want {
			return c.probeUpdate(base+i, write), false
		}
		if lru[i] <= oldest {
			way, oldest = i, lru[i]
		}
	}
	victim := base + way
	c.Misses++
	if c.tags[victim] != 0 {
		c.Evictions++
		evictedDirty = c.dirty[victim]
	}
	c.tags[victim], c.dirty[victim], c.lru[victim] = want, write, c.clock
	return false, evictedDirty
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

// Loc is where Lookup found addr's line: the level that would service an
// access right now and, on an L1 or L2 hit, the way that holds the line.
type Loc struct {
	Level energy.Level
	way   int
}

// Lookup returns where addr would be serviced right now, with no side
// effects on cache state or statistics. Used by the policies' probes; hand
// the result to AccessAt to perform the access without searching the sets
// again.
func (h *Hierarchy) Lookup(addr uint64) Loc {
	if i := h.L1.find(addr); i >= 0 {
		return Loc{Level: energy.L1, way: i}
	}
	if i := h.L2.find(addr); i >= 0 {
		return Loc{Level: energy.L2, way: i}
	}
	return Loc{Level: energy.Mem}
}

// AccessAt performs Access(addr, write) for loc = Lookup(addr). It is valid
// only while nothing has accessed h since that lookup; it then leaves tags,
// LRU stamps, clocks, dirty bits, stats and Serviced exactly as Access
// would. A hit updates the way found without searching its set again.
func (h *Hierarchy) AccessAt(addr uint64, write bool, loc Loc) AccessResult {
	// Access's L1 probe ticks the clock whether it hits or not.
	h.L1.clock++
	switch loc.Level {
	case energy.L1:
		h.L1.probeUpdate(loc.way, write)
		h.Serviced[energy.L1]++
		return AccessResult{Level: energy.L1}
	case energy.Mem:
		return h.AccessMiss(addr, write)
	}
	var r AccessResult
	if _, evictedDirty := h.L1.Access(addr, write); evictedDirty {
		r.WritebackL2++
	}
	// L1's allocation above leaves L2 untouched, so the way still holds.
	h.L2.clock++
	h.L2.probeUpdate(loc.way, write)
	h.Serviced[energy.L2]++
	r.Level = energy.L2
	return r
}

// Clone returns a deep copy of both levels and the serviced counters. The
// checkpoint engine snapshots the hierarchy with it so a restarted run's
// cache behavior — and therefore its energy account — is bit-identical to
// the uninterrupted run's.
func (h *Hierarchy) Clone() *Hierarchy {
	return &Hierarchy{L1: h.L1.Clone(), L2: h.L2.Clone(), Serviced: h.Serviced}
}
