package mem

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/amnesiac-sim/amnesiac/internal/energy"
)

func TestMemoryBasic(t *testing.T) {
	m := NewMemory()
	if m.Load(0x1000) != 0 {
		t.Error("untouched memory must read zero")
	}
	m.Store(0x1000, 42)
	if m.Load(0x1000) != 42 {
		t.Error("store/load roundtrip failed")
	}
	m.StoreF(0x2000, 3.5)
	if m.LoadF(0x2000) != 3.5 {
		t.Error("float roundtrip failed")
	}
}

func TestMemoryMisalignedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("misaligned access did not panic")
		}
	}()
	NewMemory().Load(3)
}

func TestMemoryCloneDiffEqual(t *testing.T) {
	m := NewMemory()
	m.Store(0x100, 1)
	m.Store(0x40000, 2) // separate page
	c := m.Clone()
	if !m.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.Store(0x100, 9)
	c.Store(0x50000, 7)
	if m.Equal(c) {
		t.Fatal("diverged memories reported equal")
	}
	diff := m.Diff(c, 10)
	if len(diff) != 2 || diff[0] != 0x100 || diff[1] != 0x50000 {
		t.Errorf("Diff = %#x, want [0x100 0x50000]", diff)
	}
}

// Property: a memory behaves like a map from aligned addresses to words.
func TestMemoryMatchesMap(t *testing.T) {
	f := func(ops []struct {
		Addr  uint16
		Val   uint64
		Write bool
	}) bool {
		m := NewMemory()
		ref := map[uint64]uint64{}
		for _, op := range ops {
			a := uint64(op.Addr) &^ 7
			if op.Write {
				m.Store(a, op.Val)
				ref[a] = op.Val
			} else if m.Load(a) != ref[a] {
				return false
			}
		}
		for a, v := range ref {
			if m.Load(a) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCacheConfigValidate(t *testing.T) {
	bad := []CacheConfig{
		{Name: "z", SizeBytes: 0, Assoc: 1, LineBytes: 64},
		{Name: "l", SizeBytes: 1024, Assoc: 1, LineBytes: 48},     // not power of 2
		{Name: "s", SizeBytes: 3 * 1024, Assoc: 2, LineBytes: 64}, // sets not power of 2
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	if err := DefaultHierarchyConfig().L1.Validate(); err != nil {
		t.Errorf("default L1 invalid: %v", err)
	}
}

func TestCacheHitMissLRU(t *testing.T) {
	// Tiny cache: 2 sets, 2-way, 64B lines = 256B.
	c := NewCache(CacheConfig{Name: "t", SizeBytes: 256, Assoc: 2, LineBytes: 64})
	// Addresses mapping to set 0: multiples of 128.
	a, b, d := uint64(0), uint64(128), uint64(256)
	if hit, _ := c.Access(a, false); hit {
		t.Error("cold access hit")
	}
	if hit, _ := c.Access(a, false); !hit {
		t.Error("warm access missed")
	}
	c.Access(b, false) // set 0 now holds {a,b}
	c.Access(a, false) // touch a: b becomes LRU
	c.Access(d, false) // evicts b
	if c.find(a) < 0 {
		t.Error("MRU line evicted")
	}
	if c.find(b) >= 0 {
		t.Error("LRU line survived")
	}
	if c.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", c.Evictions)
	}
}

func TestCacheWriteBackDirtyEviction(t *testing.T) {
	c := NewCache(CacheConfig{Name: "t", SizeBytes: 128, Assoc: 1, LineBytes: 64})
	c.Access(0, true) // dirty line in set 0
	if _, dirty := c.Access(128, false); !dirty {
		t.Error("dirty eviction not reported")
	}
	if _, dirty := c.Access(0, false); dirty {
		t.Error("clean eviction reported dirty")
	}
}

func TestHierarchyLevelsAndLookup(t *testing.T) {
	h := NewDefaultHierarchy()
	addr := uint64(0x12340)
	if h.Lookup(addr).Level != energy.Mem {
		t.Error("cold lookup should be Mem")
	}
	if r := h.Access(addr, false); r.Level != energy.Mem {
		t.Errorf("cold access level = %v", r.Level)
	}
	if r := h.Access(addr, false); r.Level != energy.L1 {
		t.Errorf("warm access level = %v", r.Level)
	}
	if h.Lookup(addr).Level != energy.L1 {
		t.Error("lookup after access should be L1")
	}
	// Evict from L1 by filling its set; line should still be in L2.
	l1 := h.L1.Config()
	setStride := uint64(l1.SizeBytes / l1.Assoc)
	for i := 1; i <= l1.Assoc; i++ {
		h.Access(addr+uint64(i)*setStride, false)
	}
	if lvl := h.Lookup(addr).Level; lvl != energy.L2 {
		t.Errorf("after L1 eviction lookup = %v, want L2", lvl)
	}
	if h.Serviced[energy.Mem] == 0 || h.Serviced[energy.L1] == 0 {
		t.Error("serviced counters not updated")
	}
}

func TestLookupHasNoSideEffects(t *testing.T) {
	h := NewDefaultHierarchy()
	addr := uint64(0x8000)
	h.Access(addr+64, true)
	before := h.Clone()
	for i := 0; i < 10; i++ {
		h.Lookup(addr)
		h.Lookup(addr + 64)
	}
	if !reflect.DeepEqual(h, before) {
		t.Error("Lookup perturbed cache state or statistics")
	}
	if h.Lookup(addr).Level != energy.Mem {
		t.Error("Lookup allocated a line")
	}
}

// TestLookupAccessAtMatchesAccess drives two copies of a small hierarchy
// with one random stream of loads and stores: one copy through Access, the
// other through Lookup and then AccessAt at the location found. After
// every access the results must match and the copies must be equal in
// every field: tags, LRU stamps, clocks, dirty bits, stats and Serviced.
func TestLookupAccessAtMatchesAccess(t *testing.T) {
	cfg := HierarchyConfig{
		L1: CacheConfig{Name: "L1", SizeBytes: 256, Assoc: 2, LineBytes: 64},
		L2: CacheConfig{Name: "L2", SizeBytes: 1024, Assoc: 4, LineBytes: 64},
	}
	a, b := NewHierarchy(cfg), NewHierarchy(cfg)
	rng := rand.New(rand.NewSource(7))
	var at [energy.NumLevels]int
	for i := 0; i < 50000; i++ {
		addr, write := uint64(rng.Intn(64))*64+uint64(rng.Intn(8))*8, rng.Intn(3) == 0
		loc := b.Lookup(addr)
		want, got := a.Access(addr, write), b.AccessAt(addr, write, loc)
		if got != want || loc.Level != want.Level {
			t.Fatalf("access %d (%#x, write %v): AccessAt %+v at %+v, Access %+v", i, addr, write, got, loc, want)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("access %d (%#x, write %v, %v): hierarchies diverge", i, addr, write, loc.Level)
		}
		at[want.Level]++
	}
	if a.L1.Evictions == 0 || a.L2.Evictions == 0 || at[energy.L1] == 0 || at[energy.L2] == 0 || at[energy.Mem] == 0 {
		t.Fatalf("weak stream: serviced %v, evictions L1 %d L2 %d", at, a.L1.Evictions, a.L2.Evictions)
	}
}

// refAccess is Access with the victim rule spelled out over tags: the
// last invalid way if the set has one, else the first way with the
// smallest LRU stamp.
func refAccess(c *Cache, addr uint64, write bool) (hit, evictedDirty bool) {
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

// TestAccessVictimMatchesReference drives a cache and a reference copy
// with one random stream of accesses and hit-only probes (which tick the
// clock without stamping a way): Access must pick the victim refAccess
// picks, leaving both equal in every field.
func TestAccessVictimMatchesReference(t *testing.T) {
	cfg := CacheConfig{Name: "t", SizeBytes: 1024, Assoc: 4, LineBytes: 64}
	c, ref := NewCache(cfg), NewCache(cfg)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50000; i++ {
		addr, write := uint64(rng.Intn(48))*64, rng.Intn(3) == 0
		if rng.Intn(4) == 0 {
			if c.ProbeHit(addr, write) != ref.ProbeHit(addr, write) {
				t.Fatalf("step %d: probes diverge", i)
			}
		} else {
			hit, dirty := c.Access(addr, write)
			rhit, rdirty := refAccess(ref, addr, write)
			if hit != rhit || dirty != rdirty {
				t.Fatalf("step %d: Access = %v,%v, reference %v,%v", i, hit, dirty, rhit, rdirty)
			}
		}
		if !reflect.DeepEqual(c, ref) {
			t.Fatalf("step %d (%#x): caches diverge", i, addr)
		}
	}
	if c.Evictions == 0 || c.Hits == 0 {
		t.Fatalf("weak stream: %d hits, %d evictions", c.Hits, c.Evictions)
	}
}
