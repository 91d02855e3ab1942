package amnesic

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/amnesiac-sim/amnesiac/internal/compiler"
	"github.com/amnesiac-sim/amnesiac/internal/energy"
	"github.com/amnesiac-sim/amnesiac/internal/isa"
	"github.com/amnesiac-sim/amnesiac/internal/mem"
	"github.com/amnesiac-sim/amnesiac/internal/policy"
	"github.com/amnesiac-sim/amnesiac/internal/profile"
	"github.com/amnesiac-sim/amnesiac/internal/uarch"
	"github.com/amnesiac-sim/amnesiac/internal/workloads"
)

// refHandler is the reference RCMP handler: the per-instruction walk the
// machine ran before slices compiled to recipes. It probes both cache
// levels without side effects, consults the policy, walks the body one
// instruction at a time — decoding each operand's source from its frame
// position, checking every SFile read against the entries written in this
// walk, counting each Hist read as it happens — and then goes through a
// full hierarchy Access for the shadow touch or the fallback load.
type refHandler struct {
	*Machine
	// stops counts walks that stopped after at least one op: at a missing
	// Hist entry, and at a misaligned body load.
	stops struct{ hist, misaligned int }
}

// ExecRcmp implements exec.Aux with the reference handler.
func (r *refHandler) ExecRcmp(pc int) error {
	m := r.Machine
	m.PC = pc
	if err := r.execRCMP(&m.Ann.Prog.Code[pc]); err != nil {
		return fmt.Errorf("amnesic: pc %d (%s): %w", pc, m.Ann.Prog.Code[pc], err)
	}
	return nil
}

func (r *refHandler) execRCMP(in *isa.Instr) error {
	m := r.Machine
	m.Stat.RcmpTotal++
	si := m.rcmpSlices[m.PC]
	if si == nil {
		return fmt.Errorf("RCMP references unknown slice %d", in.SliceID)
	}
	addr := m.ReadReg(in.Src1) + uint64(in.Imm)
	if err := mem.CheckAligned(addr); err != nil {
		return fmt.Errorf("RCMP load: %w", err)
	}
	level := refPeek(m.Hier, addr)
	dec := policy.Decision{}
	if !m.failedSlices[si.ID] {
		dm := m.DecisionModel
		if dm == nil {
			dm = m.Model
		}
		dec = m.Policy.Decide(policy.Ctx{Level: level, Slice: si, Model: dm})
	}
	if dec.Recompute && len(si.Recipe.Ops) <= m.SFile.Capacity() {
		m.Acct.AddInstr(isa.CatAmnesic)
		for _, l := range dec.ProbeLevels {
			m.Acct.Probes[l]++
		}
		instrs := m.Acct.SliceInstrs
		v, err := refTraverse(m, si)
		if err != nil && m.Acct.SliceInstrs > instrs {
			if errors.Is(err, mem.ErrMisaligned) {
				r.stops.misaligned++
			} else {
				r.stops.hist++
			}
		}
		if err == nil {
			m.Stat.RcmpRecomputed++
			m.Stat.SwappedServiced[level]++
			m.Acct.Recomputed++
			m.WriteReg(in.Dst, v^m.TamperRTN)
			if m.ShadowTouch {
				m.Hier.Access(addr, false)
			}
			return nil
		}
	} else if dec.Recompute {
		m.Stat.SFileRejected++
	}
	if m.Ann.DeadStoreElim {
		return fmt.Errorf("RCMP fallback load for slice %d under a dead-store-eliminated binary", si.ID)
	}
	res := m.Hier.Access(addr, false)
	m.Acct.AddWritebacks(res.WritebackL2, res.WritebackMem)
	m.Acct.AddLoad(res.Level)
	m.Acct.RcmpLoads++
	m.Stat.RcmpLoaded++
	m.WriteReg(in.Dst, m.Mem.Load(addr))
	return nil
}

// refPeek returns the level that would service addr, read from the probes
// of a throwaway copy of the hierarchy.
func refPeek(h *mem.Hierarchy, addr uint64) energy.Level {
	c := h.Clone()
	if c.L1.ProbeHit(addr, false) {
		return energy.L1
	}
	if c.L2.ProbeHit(addr, false) {
		return energy.L2
	}
	return energy.Mem
}

func refTraverse(m *Machine, si *compiler.SliceInfo) (uint64, error) {
	r := &si.Recipe
	hits, misses := m.IBuff.Traverse(si.ID, len(r.Ops)+1)
	m.Acct.IBuffHits += uint64(hits)
	m.Acct.Fetches += uint64(misses)
	sfile := make([]uint64, len(r.Ops))
	written := make([]bool, len(r.Ops))
	live, hist := 1, 1+len(r.Live)
	for idx, op := range r.Ops {
		var ops [3]uint64
		for slot, p := range op.Src {
			switch p := int(p); {
			case p == 0:
			case p < hist:
				ops[slot] = m.ReadReg(r.Live[p-live])
			case p < r.Results():
				hs := r.Hist[p-hist]
				v, ok := m.Hist.Read(hs.ID, hs.Slot)
				m.Acct.HistReads++
				if !ok {
					return 0, fmt.Errorf("slice %d: hist entry %d/%d missing", si.ID, hs.ID, hs.Slot)
				}
				ops[slot] = v
			default:
				j := p - r.Results()
				if j >= idx || !written[j] {
					return 0, fmt.Errorf("slice %d: SFile slot %d invalid", si.ID, j)
				}
				ops[slot] = sfile[j]
			}
		}
		var v uint64
		if op.Op == isa.LD {
			addr := ops[0] + uint64(op.Imm)
			if err := mem.CheckAligned(addr); err != nil {
				return 0, fmt.Errorf("slice %d: body load: %w", si.ID, err)
			}
			res := m.Hier.Access(addr, false)
			m.Acct.AddWritebacks(res.WritebackL2, res.WritebackMem)
			m.Acct.AddLoad(res.Level)
			v = m.Mem.Load(addr)
		} else {
			m.Acct.AddInstr(isa.CategoryOf(op.Op))
			v = isa.EvalComputeOp(op.Op, op.Imm, ops[0], ops[1], ops[2])
		}
		m.Acct.SliceInstrs++
		sfile[idx], written[idx] = v, true
	}
	if len(r.Ops) == 0 {
		return 0, errors.New("empty body")
	}
	m.Acct.AddInstr(isa.CatAmnesic)
	m.Stat.SliceRecomputes[si.ID]++
	return sfile[len(r.Ops)-1], nil
}

// sameMachines reports the first field in which the machine and its
// reference twin differ: registers, account, stats, both caches (tags, LRU
// stamps, clocks, dirty bits, stats, Serviced), Hist and IBuff.
func sameMachines(got, want *Machine) error {
	switch {
	case got.Regs != want.Regs:
		return errors.New("registers diverge")
	case got.Acct != want.Acct:
		return fmt.Errorf("accounts diverge:\ngot  %+v\nwant %+v", got.Acct, want.Acct)
	case !reflect.DeepEqual(got.Stat, want.Stat):
		return fmt.Errorf("stats diverge:\ngot  %+v\nwant %+v", got.Stat, want.Stat)
	case !reflect.DeepEqual(got.Hier, want.Hier):
		return errors.New("cache hierarchies diverge")
	case !reflect.DeepEqual(got.Hist, want.Hist):
		return errors.New("Hist tables diverge")
	case !reflect.DeepEqual(got.IBuff, want.IBuff):
		return errors.New("IBuffs diverge")
	}
	return nil
}

// recipeOps is every opcode a recipe can hold: each recomputable opcode,
// and the read-only body load.
func recipeOps() []isa.Op {
	ops := []isa.Op{isa.LD}
	for op := isa.Op(0); op.Valid(); op++ {
		if isa.Recomputable(op) {
			ops = append(ops, op)
		}
	}
	return ops
}

// randRecipe builds a recipe that satisfies the rules the compiler checks:
// every operand reads zero, a live register, a Hist slot or an earlier op,
// and the body is not empty. Operands of every kind appear in every slot;
// a body load's address mostly comes from a live register or a Hist slot,
// whose values the test draws from a small address pool.
func randRecipe(rng *rand.Rand, ops []isa.Op) compiler.Recipe {
	var r compiler.Recipe
	for _, reg := range rng.Perm(8)[:rng.Intn(4)] {
		r.Live = append(r.Live, isa.Reg(reg+1))
	}
	type ref struct{ kind, i int } // 0 zero, 1 live, 2 Hist, 3 op
	n := 1 + rng.Intn(8)
	refs := make([][3]ref, n)
	for i := range refs {
		op := ops[rng.Intn(len(ops))]
		if rng.Intn(5) == 0 {
			op = isa.LD
		}
		if op == isa.LD {
			r.HasLoad = true
		}
		r.Ops = append(r.Ops, compiler.RecipeOp{
			Op: op, Cat: isa.CategoryOf(op), Imm: int64(rng.Intn(5)*8 - 8 + rng.Intn(2)*rng.Intn(8)),
		})
		for slot := range refs[i] {
			// Out of 20: zero 3, live 7, Hist 3, an earlier op 7; a body
			// load's address mostly avoids computed values.
			k := rng.Intn(20)
			if op == isa.LD && slot == 0 && rng.Intn(4) > 0 {
				k = rng.Intn(13)
			}
			switch {
			case k < 3:
			case k < 10 && len(r.Live) > 0:
				refs[i][slot] = ref{1, rng.Intn(len(r.Live))}
			case k >= 10 && k < 13:
				refs[i][slot] = ref{2, len(r.Hist)}
				r.Hist = append(r.Hist, compiler.HistSlot{ID: rng.Intn(6), Slot: rng.Intn(3), Op: i})
			case k >= 13 && i > 0:
				refs[i][slot] = ref{3, rng.Intn(i)}
			}
		}
	}
	start := [4]int{0, 1, 1 + len(r.Live), r.Results()}
	for i := range refs {
		for slot, rf := range refs[i] {
			r.Ops[i].Src[slot] = uint16(start[rf.kind] + rf.i)
		}
	}
	return r
}

// randAddr draws from a pool of addresses that crowd the few sets of
// walkCaches, one in eight of them misaligned.
func randAddr(rng *rand.Rand) uint64 {
	a := uint64(rng.Intn(96)) * 8
	if rng.Intn(8) == 0 {
		a += 1 + uint64(rng.Intn(7))
	}
	return a
}

// walkCaches is a small hierarchy, so a walk's body loads, the RCMP's
// own line and the warm-up stream keep evicting one another at both levels.
var walkCaches = mem.HierarchyConfig{
	L1: mem.CacheConfig{Name: "L1", SizeBytes: 256, Assoc: 2, LineBytes: 64},
	L2: mem.CacheConfig{Name: "L2", SizeBytes: 512, Assoc: 4, LineBytes: 64},
}

// TestRecipeWalkMatchesReference runs random recipes through the machine's
// RCMP handler and through the reference handler side by side, from equal
// states: random register files and memory, Hist tables with missing
// entries and slots, misaligned body-load and RCMP addresses, a cache
// stream between RCMPs, every policy, small SFiles, and the shadow touch
// on and off. After every RCMP the error, registers, account, stats, both
// caches, Hist and IBuff must be equal.
func TestRecipeWalkMatchesReference(t *testing.T) {
	ops := recipeOps()
	rng := rand.New(rand.NewSource(1))
	memory := mem.NewMemory()
	for a := uint64(0); a < 96*8; a += 8 {
		memory.Store(a, randAddr(rng))
	}
	var recomputed, sfileRejected, touched uint64
	var stops struct{ hist, misaligned int }
	for trial := 0; trial < 300; trial++ {
		nSlices := 1 + rng.Intn(3)
		ann := &compiler.Annotated{Prog: &isa.Program{}}
		for id := 0; id < nSlices; id++ {
			ann.Slices = append(ann.Slices, &compiler.SliceInfo{ID: id, Recipe: randRecipe(rng, ops), ExpectedErc: rng.Float64() * 40})
			ann.Prog.Code = append(ann.Prog.Code, isa.Instr{
				Op: isa.RCMP, Dst: isa.Reg(1 + rng.Intn(10)), Src1: isa.Reg(1 + rng.Intn(10)),
				Imm: int64(rng.Intn(4) * 8), SliceID: int32(id),
			})
		}
		ann.Original = ann.Prog
		kind := policy.All()[rng.Intn(len(policy.All()))]
		cfg := uarch.DefaultConfig()
		if rng.Intn(4) == 0 {
			cfg.SFileEntries = 1 + rng.Intn(8)
		}
		shadow := rng.Intn(4) > 0
		var pair [2]*Machine
		for i := range pair {
			m, err := New(energy.Default(), ann, memory, policy.New(kind), cfg)
			if err != nil {
				t.Fatal(err)
			}
			m.Hier = mem.NewHierarchy(walkCaches)
			m.ShadowTouch = shadow
			m.compilerDecision = kind == policy.Compiler
			pair[i] = m
		}
		got, ref := pair[0], &refHandler{Machine: pair[1]}
		want := ref.Machine
		for id := 0; id < 6; id++ {
			mask := uint8(0b111)
			if rng.Intn(4) == 0 {
				mask = uint8(rng.Intn(8))
			}
			vals := [3]uint64{randAddr(rng), randAddr(rng), rng.Uint64()}
			got.Hist.Write(id, vals, mask)
			want.Hist.Write(id, vals, mask)
		}
		for step := 0; step < 40; step++ {
			// Perturb both machines alike: registers, Hist entries (some
			// slots masked out, some entries never written) and the caches.
			for i := 0; i < rng.Intn(4); i++ {
				reg, v := 1+rng.Intn(10), randAddr(rng)
				if rng.Intn(6) == 0 {
					v = rng.Uint64()
				}
				got.Regs[reg], want.Regs[reg] = v, v
			}
			for i := 0; i < rng.Intn(2); i++ {
				id, mask := rng.Intn(6), uint8(rng.Intn(8))
				vals := [3]uint64{randAddr(rng), randAddr(rng), rng.Uint64()}
				got.Hist.Write(id, vals, mask)
				want.Hist.Write(id, vals, mask)
			}
			for i := 0; i < rng.Intn(4); i++ {
				a, w := randAddr(rng)&^7, rng.Intn(3) == 0
				got.Hier.Access(a, w)
				want.Hier.Access(a, w)
			}
			pc := rng.Intn(nSlices)
			before := got.Stat
			gerr := got.ExecRcmp(pc)
			werr := ref.ExecRcmp(pc)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("trial %d step %d: error %v, reference %v", trial, step, gerr, werr)
			}
			if err := sameMachines(got, want); err != nil {
				t.Fatalf("trial %d step %d (%s, recipe %+v): %v", trial, step, kind, ann.Slices[pc].Recipe, err)
			}
			recomputed += got.Stat.RcmpRecomputed - before.RcmpRecomputed
			sfileRejected += got.Stat.SFileRejected - before.SFileRejected
			if shadow && got.Stat.RcmpRecomputed > before.RcmpRecomputed && ann.Slices[pc].Recipe.HasLoad {
				touched++
			}
		}
		stops.hist += ref.stops.hist
		stops.misaligned += ref.stops.misaligned
	}
	// Vacuity guards: the stream reached every outcome the walk has.
	if recomputed == 0 || sfileRejected == 0 || touched == 0 || stops.hist == 0 || stops.misaligned == 0 {
		t.Fatalf("weak stream: recomputed %d, SFile-rejected %d, touched after body loads %d, stopped mid-body %+v",
			recomputed, sfileRejected, touched, stops)
	}
	t.Logf("recomputed %d, SFile-rejected %d, touched after body loads %d, stopped mid-body %+v",
		recomputed, sfileRejected, touched, stops)
}

// TestMissingHistMatchesReference compiles sr, whose one slice reads a
// Hist slot after its first op, turns the RECs that feed that slot into
// NOPs, and runs the binary on the machine and on the reference machine
// under every policy: each RCMP of the slice that fires now meets the
// missing entry part-way through the body and falls back to the load. fe
// runs unmodified alongside: its slice performs body loads, after which
// the RCMP cannot reuse its own cache lookup. Both runs must end equal,
// store stream included.
func TestMissingHistMatchesReference(t *testing.T) {
	model := energy.Default()
	for _, name := range []string{"sr", "fe"} {
		t.Run(name, func(t *testing.T) {
			w, err := workloads.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			prog, initial := w.Build(0.1)
			prof, err := profile.Collect(model, prog, initial)
			if err != nil {
				t.Fatal(err)
			}
			ann, err := compiler.Compile(model, prog, prof, initial, compiler.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			victim, loads := -1, -1
			for _, si := range ann.Slices {
				if r := &si.Recipe; len(r.Hist) > 0 && r.Hist[len(r.Hist)-1].Op > 0 {
					victim = si.ID
				} else if r.HasLoad {
					loads = si.ID
				}
			}
			if name == "sr" {
				if victim < 0 {
					t.Fatal("sr compiled no slice that reads Hist after its first op")
				}
				nopped := *ann
				nopped.Prog = ann.Prog.Clone()
				for pc, in := range nopped.Prog.Code {
					if in.Op == isa.REC && int(in.SliceID) == victim {
						nopped.Prog.Code[pc] = isa.Instr{Op: isa.NOP}
					}
				}
				ann = &nopped
			} else if loads < 0 {
				t.Fatal("fe compiled no slice with a body load")
			}
			for _, k := range policy.All() {
				var pair [2]*Machine
				var stores [2]uint64
				var errs [2]error
				for i := range pair {
					m, err := New(model, ann, initial.Clone(), policy.New(k), uarch.DefaultConfig())
					if err != nil {
						t.Fatal(err)
					}
					m.StoreHook = func(addr, val uint64) { stores[i] = stores[i]*1000003 + addr ^ val }
					// Small caches keep refPeek's copies cheap.
					m.Hier = mem.NewHierarchy(walkCaches)
					pair[i] = m
				}
				ref := &refHandler{Machine: pair[1]}
				errs[0], errs[1] = pair[0].Run(), pair[1].run(ref)
				if fmt.Sprint(errs[0]) != fmt.Sprint(errs[1]) {
					t.Fatalf("%s: error %v, reference %v", k, errs[0], errs[1])
				}
				if err := sameMachines(pair[0], pair[1]); err != nil {
					t.Fatalf("%s: %v", k, err)
				}
				if stores[0] != stores[1] {
					t.Fatalf("%s: store streams diverge", k)
				}
				st := pair[0].Stat
				switch {
				case k != policy.Compiler:
				case victim >= 0 && (ref.stops.hist == 0 || st.SliceRecomputes[victim] != 0):
					t.Fatalf("no RCMP of slice %d stopped mid-body (%d stops, %d recomputes)", victim, ref.stops.hist, st.SliceRecomputes[victim])
				case loads >= 0 && st.SliceRecomputes[loads] == 0:
					t.Fatalf("slice %d with body loads never recomputed", loads)
				}
			}
		})
	}
}
