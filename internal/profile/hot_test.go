package profile_test

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"github.com/amnesiac-sim/amnesiac/internal/asm"
	"github.com/amnesiac-sim/amnesiac/internal/cpu"
	"github.com/amnesiac-sim/amnesiac/internal/energy"
	"github.com/amnesiac-sim/amnesiac/internal/isa"
	"github.com/amnesiac-sim/amnesiac/internal/mem"
	"github.com/amnesiac-sim/amnesiac/internal/profile"
)

// assertReplayed checks the fused collector against the reference at every
// hot threshold and returns the threshold-1 profile, failing if nothing
// replayed there.
func assertReplayed(t *testing.T, p *isa.Program) *profile.Profile {
	t.Helper()
	m := mem.NewMemory()
	ref := collectRef(t, p, m)
	for _, th := range hotThresholds {
		profilesEqual(t, ref, collectFused(t, p, m, th))
	}
	fus, replayed, err := profile.CollectHot(p, m, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if replayed == 0 {
		t.Fatalf("%s: nothing replayed at hot threshold 1", p.Name)
	}
	return fus
}

// wantDist asserts d holds exactly the pc→count pairs in want.
func wantDist(t *testing.T, what string, d profile.ProducerDist, want map[int]uint64) {
	t.Helper()
	if w := profile.MakeProducerDist(want); !d.Equal(&w) {
		t.Errorf("%s = %v, want %v", what, d, w)
	}
}

// TestR0WritesDefineNothing: a write to R0 is discarded, so a later read
// of R0 — here the value a store writes — has no producer. Both
// collectors, and the fused one under replay, must agree.
func TestR0WritesDefineNothing(t *testing.T) {
	b := asm.NewBuilder("r0")
	b.Li(1, 0x1000) // 0
	b.Li(2, 7)      // 1
	b.Add(0, 2, 2)  // 2: discarded
	b.St(1, 0, 0)   // 3: stores R0
	b.Ld(3, 1, 0)   // 4
	b.Halt()
	p := b.MustAssemble()
	m := mem.NewMemory()
	for name, prof := range map[string]*profile.Profile{
		"reference": collectRef(t, p, m),
		"fused":     collectFused(t, p, m, hotThresholds[0]),
	} {
		wantDist(t, name+" StoreValueProducer[3]", prof.StoreValueProducer[3], map[int]uint64{profile.NoProducer: 1})
		wantDist(t, name+" Loads[4].ValueProducer", prof.Loads[4].ValueProducer, map[int]uint64{profile.NoProducer: 1})
	}

	// The same inside a replayed loop.
	b = asm.NewBuilder("r0-loop")
	b.Li(1, 0x1000) // 0
	b.Li(2, 7)      // 1
	b.Li(4, 0)      // 2
	b.Li(5, 6)      // 3
	b.Li(6, 1)      // 4
	b.Label("loop")
	b.Add(0, 2, 2) // 5: discarded
	b.St(1, 0, 0)  // 6
	b.Ld(3, 1, 0)  // 7
	b.Add(4, 4, 6) // 8
	b.Blt(4, 5, "loop")
	b.Halt()
	prof := assertReplayed(t, b.MustAssemble())
	wantDist(t, "loop StoreValueProducer[6]", prof.StoreValueProducer[6], map[int]uint64{profile.NoProducer: 6})
	wantDist(t, "loop Loads[7].ValueProducer", prof.Loads[7].ValueProducer, map[int]uint64{profile.NoProducer: 6})
}

// TestHotLoopCarriedAndInvariant pins the three register edges of a
// replayed iteration: the accumulator and the counter are loop-carried
// (entry producer on the first iteration, their own last writer after),
// the bound and step are invariant (entry producer throughout), and the
// branch reads the counter from earlier in the iteration (static).
func TestHotLoopCarriedAndInvariant(t *testing.T) {
	b := asm.NewBuilder("carried")
	b.Li(1, 0x1000) // 0 base
	b.Ld(2, 1, 8)   // 1 a loaded invariant
	b.Li(4, 0)      // 2 i
	b.Li(5, 10)     // 3 n
	b.Li(6, 1)      // 4 step
	b.Li(8, 0)      // 5 acc
	b.Label("loop")
	b.Add(8, 8, 4) // 6 acc += i
	b.Add(7, 2, 8) // 7 reads the invariant and this iteration's acc
	b.St(1, 0, 2)  // 8 stores the invariant
	b.Add(4, 4, 6) // 9 i += step
	b.Blt(4, 5, "loop")
	b.Halt()
	prof := assertReplayed(t, b.MustAssemble())
	for _, c := range []struct {
		pc, op int
		want   map[int]uint64
	}{
		{6, 0, map[int]uint64{5: 1, 6: 9}}, // acc: carried
		{6, 1, map[int]uint64{2: 1, 9: 9}}, // i: carried
		{7, 0, map[int]uint64{1: 10}},      // loaded invariant
		{7, 1, map[int]uint64{6: 10}},      // acc of this iteration: static
		{8, 0, map[int]uint64{0: 10}},      // base: invariant
		{8, 1, map[int]uint64{1: 10}},      // stored invariant
		{9, 0, map[int]uint64{2: 1, 9: 9}}, // i reads itself: carried
		{9, 1, map[int]uint64{4: 10}},      // step: invariant
		{10, 0, map[int]uint64{9: 10}},     // i after the increment: static
		{10, 1, map[int]uint64{3: 10}},     // bound: invariant
	} {
		wantDist(t, fmt.Sprintf("Producers[%d][%d]", c.pc, c.op), prof.Producers[c.pc][c.op], c.want)
	}
	wantDist(t, "StoreValueProducer[8]", prof.StoreValueProducer[8], map[int]uint64{1: 10})
}

// TestHotLoopSideExitAndReentry: a guard that fails in the middle of an
// iteration hands the rest of it to the interpreter, which takes the other
// path — writing the accumulator v from a different PC — and re-enters
// replay at the next back-edge. The first replayed iteration after each
// re-entry reads and stores a v produced off the recorded path; later ones
// read and store the recorded path's. The read-back loop sees both through
// the shadow.
func TestHotLoopSideExitAndReentry(t *testing.T) {
	b := asm.NewBuilder("sideexit")
	b.Li(1, 0x1000) // 0 base
	b.Li(4, 0)      // 1 i
	b.Li(5, 80)     // 2 n
	b.Li(6, 1)      // 3 step
	b.Li(9, 7)      // 4 the rare residue
	b.Li(10, 15)    // 5 mask
	b.Li(8, 42)     // 6 v
	b.Label("loop")
	b.St(1, 0, 8)        // 7 stores v
	b.And(11, 4, 10)     // 8
	b.Beq(11, 9, "rare") // 9 taken once every 16 iterations
	b.Addi(8, 8, 3)      // 10 common path writes v
	b.Jmp("next")        // 11
	b.Label("rare")
	b.Addi(8, 8, 5) // 12 rare path writes v
	b.Label("next")
	b.Addi(1, 1, 8) // 13
	b.Add(4, 4, 6)  // 14
	b.Blt(4, 5, "loop")
	b.Li(1, 0x1000) // 16
	b.Li(4, 0)      // 17
	b.Label("back")
	b.Ld(12, 1, 0)  // 18 reads every stored v back
	b.Addi(1, 1, 8) // 19
	b.Add(4, 4, 6)  // 20
	b.Blt(4, 5, "back")
	b.Halt()
	prof := assertReplayed(t, b.MustAssemble())
	want := map[int]uint64{6: 1, 10: 74, 12: 5}
	wantDist(t, "StoreValueProducer[7]", prof.StoreValueProducer[7], want)
	wantDist(t, "Loads[18].ValueProducer", prof.Loads[18].ValueProducer, want)
	wantDist(t, "Producers[10][0]", prof.Producers[10][0], map[int]uint64{6: 1, 10: 69, 12: 5})
	wantDist(t, "Producers[12][0]", prof.Producers[12][0], map[int]uint64{10: 5})
	if got := prof.InstrCount[12]; got != 5 {
		t.Errorf("InstrCount[12] = %d, want 5", got)
	}
}

// TestHotLoopBudget: wherever the instruction budget falls — inside a
// replayed iteration, at an iteration boundary, or just before an access
// that faults — replay must end the run as the interpreter does: with the
// same budget error, which still matches cpu.ErrInstrBudget, the same
// fault, or the same profile.
func TestHotLoopBudget(t *testing.T) {
	// The loop's load faults (misaligned) on iteration fault; with no
	// fault the program retires 4 + 100×8 instructions before HALT.
	build := func(fault int64) *isa.Program {
		b := asm.NewBuilder(fmt.Sprintf("budget-fault%d", fault))
		b.Li(1, 0x1000) // 0
		b.Li(4, 0)      // 1 i
		b.Li(5, 100)    // 2
		b.Li(6, 1)      // 3
		b.Label("loop")
		b.Li(9, fault)  // 4
		b.Seq(8, 4, 9)  // 5
		b.Shl(8, 8, 6)  // 6 2 on the faulting iteration, else 0
		b.Add(10, 1, 8) // 7
		b.Ld(7, 10, 0)  // 8
		b.Add(7, 7, 6)  // 9
		b.Add(4, 4, 6)  // 10
		b.Blt(4, 5, "loop")
		b.Halt()
		return b.MustAssemble()
	}
	m := mem.NewMemory()
	const total = 4 + 100*8
	for _, p := range []*isa.Program{build(-1), build(40)} {
		for max := uint64(1); max <= total+1; max++ {
			want, _, wantErr := profile.CollectHot(p, m, max, math.MaxUint32) // interpretation only
			for _, th := range hotThresholds {
				got, _, err := profile.CollectHot(p, m, max, th)
				if fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("%s, budget %d, hot threshold %d: err %v, interpreter %v", p.Name, max, th, err, wantErr)
				}
				if err == nil {
					profilesEqual(t, want, got)
				}
			}
		}
	}
	_, err := profile.CollectLimit(energy.Default(), build(-1), m, total)
	if want := fmt.Sprintf("profile: %v (%d)", cpu.ErrInstrBudget, total); err == nil || err.Error() != want || !errors.Is(err, cpu.ErrInstrBudget) {
		t.Errorf("CollectLimit at budget %d: err %v, want %q", total, err, want)
	}
}
