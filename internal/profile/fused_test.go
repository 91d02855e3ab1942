package profile_test

import (
	"flag"
	"fmt"
	"slices"
	"testing"

	"github.com/amnesiac-sim/amnesiac/internal/asm"
	"github.com/amnesiac-sim/amnesiac/internal/energy"
	"github.com/amnesiac-sim/amnesiac/internal/gen"
	"github.com/amnesiac-sim/amnesiac/internal/isa"
	"github.com/amnesiac-sim/amnesiac/internal/mem"
	"github.com/amnesiac-sim/amnesiac/internal/profile"
	"github.com/amnesiac-sim/amnesiac/internal/trace"
	"github.com/amnesiac-sim/amnesiac/internal/workloads"
)

// profilesEqual asserts the fused collector's Profile is bit-identical to
// the reference collector's: producers, load levels, value locality,
// read-only classification, store-consumer sets, counts, and the exact
// written set, whose runs must be well formed in both.
func profilesEqual(t *testing.T, ref, fus *profile.Profile) {
	t.Helper()
	if ref.TotalDynamic != fus.TotalDynamic {
		t.Errorf("TotalDynamic: ref %d, fused %d", ref.TotalDynamic, fus.TotalDynamic)
	}
	n := len(ref.InstrCount)
	if len(fus.InstrCount) != n {
		t.Fatalf("InstrCount length: ref %d, fused %d", n, len(fus.InstrCount))
	}
	for pc := 0; pc < n; pc++ {
		if ref.InstrCount[pc] != fus.InstrCount[pc] {
			t.Errorf("InstrCount[%d]: ref %d, fused %d", pc, ref.InstrCount[pc], fus.InstrCount[pc])
		}
		if ref.StoreCount[pc] != fus.StoreCount[pc] {
			t.Errorf("StoreCount[%d]: ref %d, fused %d", pc, ref.StoreCount[pc], fus.StoreCount[pc])
		}
		if ref.LoadAllReadOnly[pc] != fus.LoadAllReadOnly[pc] {
			t.Errorf("LoadAllReadOnly[%d]: ref %v, fused %v", pc, ref.LoadAllReadOnly[pc], fus.LoadAllReadOnly[pc])
		}
		for op := 0; op < 3; op++ {
			if !ref.Producers[pc][op].Equal(&fus.Producers[pc][op]) {
				t.Errorf("Producers[%d][%d]: ref %v, fused %v", pc, op, ref.Producers[pc][op], fus.Producers[pc][op])
			}
		}
		if !ref.StoreValueProducer[pc].Equal(&fus.StoreValueProducer[pc]) {
			t.Errorf("StoreValueProducer[%d]: ref %v, fused %v", pc, ref.StoreValueProducer[pc], fus.StoreValueProducer[pc])
		}
		rs, fs := ref.StoresConsumedBy[pc], fus.StoresConsumedBy[pc]
		if len(rs) != len(fs) {
			t.Errorf("StoresConsumedBy[%d]: ref %v, fused %v", pc, rs, fs)
		} else {
			for ld := range rs {
				if !fs[ld] {
					t.Errorf("StoresConsumedBy[%d]: fused missing load %d", pc, ld)
				}
			}
		}
		rl, fl := ref.Loads[pc], fus.Loads[pc]
		if (rl == nil) != (fl == nil) {
			t.Errorf("Loads[%d]: ref nil=%v, fused nil=%v", pc, rl == nil, fl == nil)
			continue
		}
		if rl == nil {
			continue
		}
		if rl.PC != fl.PC || rl.Count != fl.Count || rl.SameValue != fl.SameValue {
			t.Errorf("Loads[%d]: ref {pc %d n %d sv %d}, fused {pc %d n %d sv %d}",
				pc, rl.PC, rl.Count, rl.SameValue, fl.PC, fl.Count, fl.SameValue)
		}
		if rl.ByLevel != fl.ByLevel {
			t.Errorf("Loads[%d].ByLevel: ref %v, fused %v", pc, rl.ByLevel, fl.ByLevel)
		}
		if !rl.ValueProducer.Equal(&fl.ValueProducer) {
			t.Errorf("Loads[%d].ValueProducer: ref %v, fused %v", pc, rl.ValueProducer, fl.ValueProducer)
		}
	}
	checkRuns(t, "reference", ref.Written)
	checkRuns(t, "fused", fus.Written)
	if !slices.Equal(ref.Written, fus.Written) {
		t.Errorf("Written: ref %d runs %#x, fused %d runs %#x", len(ref.Written), ref.Written, len(fus.Written), fus.Written)
	}
}

// checkRuns asserts that runs is a written set: runs in ascending order,
// each non-empty, with a gap before the next.
func checkRuns(t *testing.T, collector string, runs []mem.Run) {
	t.Helper()
	for i, r := range runs {
		if r.Len == 0 {
			t.Errorf("%s Written[%d] at %#x is empty", collector, i, r.Start)
		}
		if i > 0 && runs[i-1].End() >= r.Start {
			t.Errorf("%s Written[%d] at %#x does not start after a gap past Written[%d] %#x", collector, i, r.Start, i-1, runs[i-1])
		}
	}
}

// profileN is the number of generated programs TestFusedMatchesReferenceGen
// checks at each hot-loop threshold.
var profileN = flag.Int("profile.n", 120, "generated programs the fused-profiler oracle checks")

// hotThresholds are the hot-loop thresholds the oracle runs the fused
// collector at: the production default (profile.Collect), and 1, which
// records every loop on its second iteration and replays it from the
// third, so short loops and rarely taken paths replay too.
var hotThresholds = []uint32{trace.DefaultConfig().Threshold, 1}

// collectFused runs the fused collector at the given hot-loop threshold.
func collectFused(t *testing.T, p *isa.Program, m *mem.Memory, threshold uint32) *profile.Profile {
	t.Helper()
	var fus *profile.Profile
	var err error
	if threshold == trace.DefaultConfig().Threshold {
		fus, err = profile.Collect(energy.Default(), p, m)
	} else {
		fus, _, err = profile.CollectHot(p, m, 0, threshold)
	}
	if err != nil {
		t.Fatalf("fused collector (hot threshold %d): %v", threshold, err)
	}
	return fus
}

func collectRef(t *testing.T, p *isa.Program, m *mem.Memory) *profile.Profile {
	t.Helper()
	ref, err := profile.CollectReference(energy.Default(), p, m)
	if err != nil {
		t.Fatalf("reference collector: %v", err)
	}
	return ref
}

func collectBoth(t *testing.T, p *isa.Program, m *mem.Memory) (ref, fus *profile.Profile) {
	t.Helper()
	return collectRef(t, p, m), collectFused(t, p, m, trace.DefaultConfig().Threshold)
}

// TestFusedMatchesReferenceWorkloads proves the fused profiler bit-identical
// to the reference collector across the full workload suite at scale 0.05,
// and over the 11 responsive kernels at scale 0.3 (subtest scale0.3, not
// run with -short), the cold-suite benchmark's scale, where the data and
// shadow windows grow several times over; at every hot threshold.
func TestFusedMatchesReferenceWorkloads(t *testing.T) {
	responsive := make(map[string]bool)
	for _, w := range workloads.Responsive() {
		responsive[w.Name] = true
	}
	check := func(t *testing.T, w *workloads.Workload, scale float64) {
		p, m := w.Build(scale)
		ref := collectRef(t, p, m)
		for _, th := range hotThresholds {
			t.Run(fmt.Sprintf("hot%d", th), func(t *testing.T) {
				profilesEqual(t, ref, collectFused(t, p, m, th))
			})
		}
	}
	for _, w := range workloads.All() {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			check(t, w, 0.05)
			if responsive[w.Name] && !testing.Short() {
				t.Run("scale0.3", func(t *testing.T) { check(t, w, 0.3) })
			}
		})
	}
}

// TestFusedMatchesReferenceGen proves bit-identity across -profile.n seeded
// random programs from the differential-fuzzing generator, at every hot
// threshold.
func TestFusedMatchesReferenceGen(t *testing.T) {
	cfg := gen.DefaultConfig()
	for seed := int64(0); seed < int64(*profileN); seed++ {
		p, m, err := gen.Generate(seed, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ref := collectRef(t, p, m)
		for _, th := range hotThresholds {
			profilesEqual(t, ref, collectFused(t, p, m, th))
			if t.Failed() {
				t.Fatalf("seed %d, hot threshold %d: profile mismatch", seed, th)
			}
		}
	}
}

// TestFusedShadowMigration exercises the window caches' miss paths on the
// data and the shadow memory, whose windows anchor at different times:
// loads before any data window exists (the first touch anchors the
// shadow's arena, the second grows it past any word the data memory
// holds), a data store anchoring and growing the arena over a touched
// word (store-time invalidation), more far regions than a memory keeps
// flat windows for (data and shadow words in the page map), a consumed
// load served from page-map words, and the written-set walk over a
// page-map page.
func TestFusedShadowMigration(t *testing.T) {
	const (
		baseA = 0x100000   // primary arena anchor
		farB  = 0x180000   // A + 512 KiB: inside primary growth window
		farC  = 0x200000   // A + 1 MiB: never written
		reg1  = 0x10000000 // anchors extra region 1
		reg2  = 0x20000000 // anchors extra region 2
		reg3  = 0x30000000 // anchors extra region 3
		reg4  = 0x40000000 // beyond maxExtraRegions: data and shadow page maps
		reg5  = 0x50000000 // never written, out of every window
	)
	b := asm.NewBuilder("migration")
	b.Li(1, baseA)
	b.Li(2, farB)
	b.Li(3, farC)
	b.Li(10, reg1)
	b.Li(11, reg2)
	b.Li(12, reg3)
	b.Li(13, reg4)
	b.Li(14, reg5)
	b.Li(20, 0) // i
	b.Li(21, 2) // trips
	b.Li(22, 1)
	b.Label("loop")
	b.Ld(4, 1, 0)  // pre-anchor load of A: the touch anchors the shadow's arena
	b.Ld(5, 3, 0)  // A+1MiB: never written -> read-only
	b.St(1, 0, 2)  // anchors the data arena at A (invalidates the touch)
	b.St(2, 0, 1)  // grows the data arena out to A+512KiB
	b.Ld(6, 2, 0)  // consumed load served from the grown windows
	b.St(10, 0, 1) // fill the data memory's three extra flat regions...
	b.St(11, 0, 1)
	b.St(12, 0, 1)
	b.St(13, 0, 1) // ...then a data store to the page map
	b.Ld(7, 13, 0) // consumed load: data and shadow words in the page map
	b.Ld(8, 14, 0) // never-written page-map word -> read-only
	b.Add(20, 20, 22)
	b.Blt(20, 21, "loop")
	b.Halt()
	p := b.MustAssemble()

	ref, fus := collectBoth(t, p, mem.NewMemory())
	profilesEqual(t, ref, fus)

	// Direct expectations, independent of the reference collector.
	var loadPCs []int
	for pc, in := range p.Code {
		if in.Op == isa.LD {
			loadPCs = append(loadPCs, pc)
		}
	}
	if len(loadPCs) != 5 {
		t.Fatalf("expected 5 loads, found %v", loadPCs)
	}
	wantRO := map[int]bool{
		loadPCs[0]: false, // A is stored after the touch (store-time invalidation)
		loadPCs[1]: true,  // A+1MiB never written
		loadPCs[2]: false, // consumed
		loadPCs[3]: false, // consumed via a page-map shadow word
		loadPCs[4]: true,  // far page-map word never written
	}
	for pc, want := range wantRO {
		if fus.LoadAllReadOnly[pc] != want {
			t.Errorf("LoadAllReadOnly[%d] = %v, want %v", pc, fus.LoadAllReadOnly[pc], want)
		}
	}
	for _, tc := range []struct {
		addr uint64
		want bool
	}{
		{baseA, false}, {farB, false}, {farC, true},
		{reg1, false}, {reg4, false}, {reg5, true},
	} {
		if got := fus.ReadOnlyAddr(tc.addr); got != tc.want {
			t.Errorf("ReadOnlyAddr(%#x) = %v, want %v", tc.addr, got, tc.want)
		}
	}
}

// TestFusedShadowWords pins each shadow word encoding on a hand-built
// program, against the reference collector at every hot threshold and
// against direct expectations: a word read by two, or by three, distinct
// load PCs and then stored (every reader loses read-only); a word read by
// three and never stored (every reader stays read-only, and the word stays
// out of Written); a store of a never-written register, which has no
// producer, read back; and a load, then a store, at PC 0.
func TestFusedShadowWords(t *testing.T) {
	const addr = 0x1000
	for _, tc := range []struct {
		name    string
		code    func(b *asm.Builder)
		ro      map[int]bool // LoadAllReadOnly by load PC
		written []uint64     // Written, as ascending byte addresses
		check   func(t *testing.T, prof *profile.Profile)
	}{
		{
			name: "two readers then stored",
			code: func(b *asm.Builder) {
				b.Ld(1, 0, addr).Ld(2, 0, addr).St(0, addr, 1)
			},
			ro:      map[int]bool{0: false, 1: false},
			written: []uint64{addr},
		},
		{
			name: "three readers then stored",
			code: func(b *asm.Builder) {
				b.Ld(1, 0, addr).Ld(2, 0, addr).Ld(3, 0, addr).St(0, addr, 1)
			},
			ro:      map[int]bool{0: false, 1: false, 2: false},
			written: []uint64{addr},
		},
		{
			name: "three readers never stored",
			code: func(b *asm.Builder) {
				b.Ld(1, 0, addr).Ld(2, 0, addr).Ld(3, 0, addr).St(0, addr+8, 1)
			},
			ro:      map[int]bool{0: true, 1: true, 2: true},
			written: []uint64{addr + 8},
		},
		{
			name: "store without producer",
			code: func(b *asm.Builder) {
				b.Li(2, addr).St(2, 0, 9).Ld(1, 2, 0)
			},
			ro:      map[int]bool{2: false},
			written: []uint64{addr},
			check: func(t *testing.T, prof *profile.Profile) {
				if pc, _, ok := prof.StoreValueProducer[1].Dominant(); !ok || pc != profile.NoProducer {
					t.Errorf("store's value producer %d (%v), want none", pc, ok)
				}
				if pc, _, ok := prof.Loads[2].ValueProducer.Dominant(); !ok || pc != profile.NoProducer {
					t.Errorf("load's value producer %d (%v), want none", pc, ok)
				}
				if got := prof.StoresConsumedBy[1]; len(got) != 1 || !got[2] {
					t.Errorf("store consumed by %v, want the load at pc 2", got)
				}
			},
		},
		{
			name: "load at pc 0",
			code: func(b *asm.Builder) {
				b.Ld(1, 0, addr).St(0, addr, 1)
			},
			ro:      map[int]bool{0: false},
			written: []uint64{addr},
		},
		{
			name: "store at pc 0",
			code: func(b *asm.Builder) {
				b.St(0, addr, 0).Ld(1, 0, addr)
			},
			ro:      map[int]bool{1: false},
			written: []uint64{addr},
			check: func(t *testing.T, prof *profile.Profile) {
				if got := prof.StoresConsumedBy[0]; len(got) != 1 || !got[1] {
					t.Errorf("store at pc 0 consumed by %v, want the load at pc 1", got)
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := asm.NewBuilder(tc.name)
			tc.code(b)
			p := b.Halt().MustAssemble()
			ref := collectRef(t, p, mem.NewMemory())
			for _, th := range hotThresholds {
				fus := collectFused(t, p, mem.NewMemory(), th)
				profilesEqual(t, ref, fus)
				for pc, want := range tc.ro {
					if got := fus.LoadAllReadOnly[pc]; got != want {
						t.Errorf("hot%d: LoadAllReadOnly[%d] = %v, want %v", th, pc, got, want)
					}
				}
				var runs []mem.Run
				for _, a := range tc.written {
					runs = mem.AppendWord(runs, a>>3)
				}
				if !slices.Equal(fus.Written, runs) {
					t.Errorf("hot%d: Written = %#x, want %#x", th, fus.Written, runs)
				}
				if tc.check != nil {
					tc.check(t, fus)
				}
			}
		})
	}
}

// TestDominantNoAlloc pins the satellite fix: Dominant must not allocate,
// even for distributions that spilled past the inline slots.
func TestDominantNoAlloc(t *testing.T) {
	d := profile.MakeProducerDist(map[int]uint64{
		3: 5, 7: 9, 11: 9, 15: 2, 19: 4, 23: 1, // 6 producers: 4 inline + 2 spilled
	})
	if allocs := testing.AllocsPerRun(100, func() {
		pc, _, ok := d.Dominant()
		if !ok || pc != 7 { // tie 7 vs 11 breaks to the lowest PC
			t.Fatalf("Dominant = %d, %v", pc, ok)
		}
	}); allocs != 0 {
		t.Errorf("Dominant allocates %.1f allocs/op, want 0", allocs)
	}
}

func BenchmarkDominant(b *testing.B) {
	d := profile.MakeProducerDist(map[int]uint64{3: 5, 7: 9, 11: 9, 15: 2, 19: 4, 23: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, ok := d.Dominant(); !ok {
			b.Fatal("empty")
		}
	}
}

func benchmarkCollect(b *testing.B, collect func(*energy.Model, *isa.Program, *mem.Memory) (*profile.Profile, error)) {
	w, err := workloads.Get("mcf")
	if err != nil {
		b.Fatal(err)
	}
	p, m := w.Build(0.1)
	model := energy.Default()
	prof, err := collect(model, p, m)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := collect(model, p, m); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(prof.TotalDynamic)*float64(b.N)/b.Elapsed().Seconds()/1e6, "MIPS")
}

func BenchmarkCollectFused(b *testing.B)     { benchmarkCollect(b, profile.Collect) }
func BenchmarkCollectReference(b *testing.B) { benchmarkCollect(b, profile.CollectReference) }
