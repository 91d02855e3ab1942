package profile

import (
	"slices"
	"testing"

	"github.com/amnesiac-sim/amnesiac/internal/mem"
)

// TestTouchSet pins a word's touch set: each load PC is kept once, inline
// for the first two (PC plus one, so PC 0 is not "none") and in touchSpill
// from the third on, and a store's invalidation marks every one of them.
func TestTouchSet(t *testing.T) {
	c := &fusedCollector{
		shadow:     newWinCache(mem.NewMemory()),
		touchSpill: make(map[uint64][]int32),
		roFalse:    make([]bool, 8),
	}
	touch := func(w uint64, pcs ...int32) {
		for _, pc := range pcs {
			c.touch(w, c.shadow.load(w), pc)
		}
	}
	const w = 0x200
	touch(w, 0, 5, 0, 5)
	if s := c.shadow.load(w); s != 1|6<<32 || len(c.touchSpill) != 0 {
		t.Fatalf("after PCs 0,5,0,5: shadow word %#x, spill %v; want %#x and none", s, c.touchSpill, uint64(1|6<<32))
	}
	touch(w, 3, 5, 0, 3)
	if s := c.shadow.load(w); s != touchSpilled || !slices.Equal(c.touchSpill[w], []int32{0, 5, 3}) {
		t.Fatalf("after PCs 3,5,0,3: shadow word %#x, spill %v; want the spill mark and [0 5 3]", s, c.touchSpill[w])
	}
	c.invalidate(w, c.shadow.load(w))
	for pc, want := range []bool{true, false, false, true, false, true, false, false} {
		if c.roFalse[pc] != want {
			t.Errorf("roFalse[%d] = %v, want %v", pc, c.roFalse[pc], want)
		}
	}
	if len(c.touchSpill) != 0 {
		t.Errorf("invalidation left the spill set %v", c.touchSpill)
	}

	// Two inline PCs, no spill: the store must reach the second one too.
	clear(c.roFalse)
	touch(w+1, 4, 2)
	c.invalidate(w+1, c.shadow.load(w+1))
	if !c.roFalse[4] || !c.roFalse[2] {
		t.Errorf("two inline PCs: roFalse[4], roFalse[2] = %v, %v, want both true", c.roFalse[4], c.roFalse[2])
	}
}
