package profile_test

import (
	"math/rand"
	"testing"

	"github.com/amnesiac-sim/amnesiac/internal/asm"
	"github.com/amnesiac-sim/amnesiac/internal/energy"
	"github.com/amnesiac-sim/amnesiac/internal/isa"
	"github.com/amnesiac-sim/amnesiac/internal/mem"
	"github.com/amnesiac-sim/amnesiac/internal/profile"
)

// buildDerived returns a producer/consumer program with known PCs:
// pc 6: mul (producer of the stored value), pc 9: st, pc 13: ld.
func buildDerived(t *testing.T, n int64) (*isa.Program, *mem.Memory) {
	t.Helper()
	b := asm.NewBuilder("p")
	b.Li(1, 0x1000) // 0 base
	b.Li(2, n)      // 1
	b.Li(3, 1)      // 2
	b.Li(5, 3)      // 3 shift
	b.Li(4, 0)      // 4 i
	b.Label("prod") // 5:
	b.Mul(6, 4, 2)  // 5 producer
	b.Shl(7, 4, 5)  // 6
	b.Add(8, 1, 7)  // 7
	b.St(8, 0, 6)   // 8
	b.Add(4, 4, 3)  // 9
	b.Blt(4, 2, "prod")
	b.Li(4, 0)
	b.Label("cons")
	b.Shl(7, 4, 5)
	b.Add(8, 1, 7)
	b.Ld(9, 8, 0) // the consumer load
	b.Add(10, 10, 9)
	b.Add(4, 4, 3)
	b.Blt(4, 2, "cons")
	b.Halt()
	return b.MustAssemble(), mem.NewMemory()
}

func collect(t *testing.T, p *isa.Program, m *mem.Memory) *profile.Profile {
	t.Helper()
	prof, err := profile.Collect(energy.Default(), p, m)
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

func findLoad(t *testing.T, p *isa.Program) int {
	t.Helper()
	for pc, in := range p.Code {
		if in.Op == isa.LD {
			return pc
		}
	}
	t.Fatal("no load in program")
	return -1
}

func TestValueProducerTracking(t *testing.T) {
	p, m := buildDerived(t, 100)
	prof := collect(t, p, m)
	ld := findLoad(t, p)
	li := prof.Loads[ld]
	if li == nil || li.Count != 100 {
		t.Fatalf("load info = %+v", li)
	}
	prod, share, ok := li.ValueProducer.Dominant()
	if !ok || share != 1.0 {
		t.Fatalf("dominant producer share = %v", share)
	}
	if p.Code[prod].Op != isa.MUL {
		t.Errorf("value producer is %s, want mul", p.Code[prod].Op)
	}
	if prof.LoadAllReadOnly[ld] {
		t.Error("written array classified read-only")
	}
}

func TestReadOnlyDetection(t *testing.T) {
	b := asm.NewBuilder("ro")
	b.Li(1, 0x2000)
	b.Ld(2, 1, 0) // reads initial memory only
	b.Halt()
	p := b.MustAssemble()
	m := mem.NewMemory()
	m.Store(0x2000, 5)
	prof := collect(t, p, m)
	ld := findLoad(t, p)
	if !prof.LoadAllReadOnly[ld] {
		t.Error("program-input load not classified read-only")
	}
	if _, _, ok := prof.Loads[ld].ValueProducer.Dominant(); ok {
		if pc, _, _ := prof.Loads[ld].ValueProducer.Dominant(); pc != profile.NoProducer {
			t.Error("program input has a producer")
		}
	}
}

func TestValueLocality(t *testing.T) {
	// Store a constant to one address, load it repeatedly: locality 1.
	b := asm.NewBuilder("vl")
	b.Li(1, 0x3000).Li(2, 9).Li(3, 20).Li(4, 0).Li(5, 1)
	b.St(1, 0, 2)
	b.Label("loop")
	b.Ld(6, 1, 0)
	b.Add(4, 4, 5)
	b.Blt(4, 3, "loop")
	b.Halt()
	p := b.MustAssemble()
	prof := collect(t, p, mem.NewMemory())
	li := prof.Loads[findLoad(t, p)]
	if got := li.ValueLocality(); got != 1.0 {
		t.Errorf("locality = %v, want 1", got)
	}
}

func TestDeadStoreAnalysis(t *testing.T) {
	p, m := buildDerived(t, 50)
	prof := collect(t, p, m)
	ld := findLoad(t, p)
	var st int = -1
	for pc, in := range p.Code {
		if in.Op == isa.ST {
			st = pc
		}
	}
	// Not dead while the load is unswapped.
	if dead := prof.DeadStorePCs(map[int]bool{}, false); len(dead) != 0 {
		t.Errorf("unswapped consumer but dead stores %v", dead)
	}
	// Dead once its only consumer is swapped.
	dead := prof.DeadStorePCs(map[int]bool{ld: true}, false)
	if len(dead) != 1 || dead[0] != st {
		t.Errorf("dead stores = %v, want [%d]", dead, st)
	}
}

func TestDominantTieBreakDeterministic(t *testing.T) {
	d := profile.MakeProducerDist(map[int]uint64{5: 10, 3: 10})
	pc, share, ok := d.Dominant()
	if !ok || pc != 3 || share != 0.5 {
		t.Errorf("Dominant = %d,%v,%v; want lowest PC 3", pc, share, ok)
	}
}

// TestReadOnlyAddrOverRuns: ReadOnlyAddr's binary search over the written
// runs agrees with a brute-force word set on random written sets, at every
// word of their span, each run's first and last word and the words just
// outside it, from word 0 to the top of the address space.
func TestReadOnlyAddrOverRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const top = 1 << 61 // one past the highest word index
	for trial := 0; trial < 300; trial++ {
		span := uint64(1 + rng.Intn(600))
		base := []uint64{0, 1 << 20, top - span}[trial%3]
		density := rng.Float64()
		set := map[uint64]bool{}
		var runs []mem.Run
		for w := base; w < base+span; w++ {
			if rng.Float64() < density {
				set[w] = true
				runs = mem.AppendWord(runs, w)
			}
		}
		checkRuns(t, "AppendWord", runs)
		n := uint64(0)
		for _, r := range runs {
			n += r.Len
		}
		if n != uint64(len(set)) {
			t.Fatalf("trial %d: runs hold %d words, the set %d", trial, n, len(set))
		}
		prof := &profile.Profile{Written: runs}
		probe := func(w uint64) {
			if w >= top {
				return
			}
			if got := prof.ReadOnlyAddr(w << 3); got == set[w] {
				t.Fatalf("trial %d: ReadOnlyAddr(word %#x) = %v, written %v (runs %#x)", trial, w, got, set[w], runs)
			}
		}
		for w := base; w <= base+span; w++ {
			probe(w)
		}
		for _, r := range runs {
			probe(r.Start - 1) // wraps past the top at word 0, which probe skips
			probe(r.Start)
			probe(r.End() - 1)
			probe(r.End())
		}
	}
}
