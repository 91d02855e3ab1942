// Package profile implements the dynamic profiler that stands in for the
// paper's Pin-based runtime profiler (§4, "Binary generation"). A profiling
// run of the classic core collects everything the amnesic compiler needs:
//
//   - the producer–consumer dependence graph: for each static instruction
//     operand, the distribution of static producer PCs that dynamically
//     supplied its value;
//   - for each static load, the distribution of static instructions that
//     produced the loaded *value* (via the store that wrote the address);
//   - per-load service-level statistics (PrLi of §3.1.1) from cache
//     hit/miss behaviour;
//   - read-only address detection (program inputs: addresses never stored
//     by the program);
//   - last-value locality per static load (§5.6, Fig. 8).
//
// Collect is a fused specialized interpreter: a dedicated run loop
// interleaves execution with dependence tracking, with all address-keyed
// state held in one shadow word per data word, in a second mem.Memory at
// the data's own addresses (see fused.go). Hot loops are recorded once
// and replayed (see hot.go): loads and stores keep their per-access work,
// while the register edges and instruction counts of the replayed
// iterations, fixed by the recorded path and the producer table at entry,
// are added once per replay. A write to R0 is discarded and defines
// nothing in either collector, so a value read from R0 — a stored R0,
// say — has no producer. CollectReference is the slow reference
// implementation: an observer on the flat reference stepper
// (internal/ref) recording through per-address maps; the differential
// tests assert both produce identical profiles, written set included.
package profile

import (
	"fmt"
	"slices"
	"unsafe"

	"github.com/amnesiac-sim/amnesiac/internal/cpu"
	"github.com/amnesiac-sim/amnesiac/internal/energy"
	"github.com/amnesiac-sim/amnesiac/internal/isa"
	"github.com/amnesiac-sim/amnesiac/internal/mem"
	"github.com/amnesiac-sim/amnesiac/internal/ref"
)

// NoProducer marks an operand value with no producing instruction observed:
// it came from initial register state (a program input held in a register)
// or, for loaded values, from initial memory.
const NoProducer = -1

// LoadInfo aggregates profiling data for one static load.
type LoadInfo struct {
	PC      int
	Count   uint64                   // dynamic executions
	ByLevel [energy.NumLevels]uint64 // servicing level counts
	// ValueProducer distributes over the static PCs whose results were
	// ultimately loaded (NoProducer = program input / read-only data).
	ValueProducer ProducerDist
	// SameValue counts instances whose loaded value equalled the previous
	// instance's value (last-value locality, Fig. 8).
	SameValue uint64

	lastValue    uint64
	lastValueSet bool
}

// PrLevel returns the empirical probability the load is serviced at l.
func (li *LoadInfo) PrLevel(l energy.Level) float64 {
	if li.Count == 0 {
		return 0
	}
	return float64(li.ByLevel[l]) / float64(li.Count)
}

// ExpectedLoadEnergy returns the probabilistic Eld of §3.1.1: Σ PrLi × EPILi.
func (li *LoadInfo) ExpectedLoadEnergy(m *energy.Model) float64 {
	e := m.InstrEnergy(isa.CatLoad)
	for l := energy.L1; l < energy.NumLevels; l++ {
		e += li.PrLevel(l) * m.LoadEnergy(l)
	}
	return e
}

// ExpectedHierarchyEnergy returns the probabilistic hierarchy-only energy
// Σ PrLi × EPILi (no issue overhead), used to cost read-only leaf loads.
func (li *LoadInfo) ExpectedHierarchyEnergy(m *energy.Model) float64 {
	e := 0.0
	for l := energy.L1; l < energy.NumLevels; l++ {
		e += li.PrLevel(l) * m.LoadEnergy(l)
	}
	return e
}

// ValueLocality returns the last-value locality in [0,1].
func (li *LoadInfo) ValueLocality() float64 {
	if li.Count <= 1 {
		return 0
	}
	return float64(li.SameValue) / float64(li.Count-1)
}

// Profile is the result of a profiling run. All slice fields but Written
// are indexed by static PC and sized to the program length.
type Profile struct {
	Program *isa.Program

	// Producers holds, per instruction and source-operand slot (0 = Src1,
	// 1 = Src2, 2 = Dst-as-source for FMA), the distribution of static PCs
	// that produced the register value the operand consumed. An Empty
	// distribution means the operand was never observed.
	Producers [][3]ProducerDist

	// Loads holds per-static-load profiling info (nil for non-loads and
	// never-executed loads).
	Loads []*LoadInfo

	// StoreValueProducer holds, per static store, the distribution of
	// static PCs producing the stored value (Empty if never executed).
	StoreValueProducer []ProducerDist

	// StoresConsumedBy holds, per static store, the set of static load PCs
	// that observed a value written by that store (for dead-store
	// analysis). Nil for stores whose values were never loaded.
	StoresConsumedBy []map[int]bool

	// StoreCount is the dynamic execution count per static store.
	StoreCount []uint64

	// Written is the set of words the program stored to, as ascending
	// runs of consecutive word indices (byte address >> 3), none adjacent
	// to the next: the checkpoint engine's payload domain, and what sizes
	// the windows of forks of the prepared image (mem.Memory.Seal). It is
	// address-level: a load PC is a "read-only load" if every address it
	// touched is read-only.
	Written []mem.Run
	// LoadAllReadOnly reports, per static load, whether all its observed
	// addresses were never written during the run.
	LoadAllReadOnly []bool

	// InstrCount is the dynamic count per static PC (all opcodes).
	InstrCount []uint64

	// TotalDynamic is the total dynamic instruction count.
	TotalDynamic uint64
}

// ReadOnlyAddr reports whether the program never stored to addr.
func (p *Profile) ReadOnlyAddr(addr uint64) bool {
	_, written := mem.FindRun(p.Written, addr>>3)
	return !written
}

// Bytes returns the bytes the profile keeps resident: its PC-indexed
// tables, the load records they point to, and its written set (16 bytes a
// run, however many words it holds). The few map entries it holds per
// static instruction (producer spills, consumer sets) are not counted.
func (p *Profile) Bytes() int64 {
	b := int64(len(p.InstrCount)) * int64(4*unsafe.Sizeof(ProducerDist{})+unsafe.Sizeof(&LoadInfo{})+
		unsafe.Sizeof(map[int]bool(nil))+2*unsafe.Sizeof(uint64(0))+unsafe.Sizeof(false))
	for _, li := range p.Loads {
		if li != nil {
			b += int64(unsafe.Sizeof(*li))
		}
	}
	return b + int64(len(p.Written))*int64(unsafe.Sizeof(mem.Run{}))
}

// newProfile allocates the PC-indexed skeleton shared by both collectors.
func newProfile(p *isa.Program) *Profile {
	n := len(p.Code)
	return &Profile{
		Program:            p,
		Producers:          make([][3]ProducerDist, n),
		Loads:              make([]*LoadInfo, n),
		StoreValueProducer: make([]ProducerDist, n),
		StoresConsumedBy:   make([]map[int]bool, n),
		StoreCount:         make([]uint64, n),
		LoadAllReadOnly:    make([]bool, n),
		InstrCount:         make([]uint64, n),
	}
}

// CollectReference profiles program p with the reference collector: an
// observer on the flat reference stepper, recording through sparse
// per-address maps, with service levels from its own default hierarchy.
// It is retained purely as the reference implementation the fused
// collector (Collect) is differentially tested against; production paths
// should call Collect. The model is unused, as in Collect: profiles carry
// no energy.
func CollectReference(model *energy.Model, p *isa.Program, initial *mem.Memory) (*Profile, error) {
	prof := newProfile(p)
	n := len(p.Code)

	// regProducer tracks the static PC that last wrote each register
	// (NoProducer = initial state).
	var regProducer [isa.NumRegs]int
	for i := range regProducer {
		regProducer[i] = NoProducer
	}
	// memValueProducer tracks, per address, the static PC that produced the
	// most recently stored value, and the store PC that wrote it.
	type memOrigin struct {
		valueProducer int
		storePC       int
	}
	memProd := make(map[uint64]memOrigin, n)
	writtenAddrs := make(map[uint64]bool, n)
	// loadTouched records which addresses each load PC touched, so
	// read-only classification can be finalized after the run.
	loadTouched := make([]map[uint64]bool, n)

	record := func(pc, opIdx int, r isa.Reg) {
		if r == isa.R0 {
			return
		}
		prof.Producers[pc][opIdx].Add(int32(regProducer[r]))
	}

	kinds := p.Decoded().Kind

	hier := mem.NewDefaultHierarchy()
	_, err := ref.Run(p, initial.Clone(), cpu.DefaultMaxInstrs, func(s *ref.Step) {
		pc := s.PC
		// HALT is not profiled: Collect stops at it uncounted.
		if kinds[pc] == isa.KindHalt {
			return
		}
		prof.InstrCount[pc]++
		prof.TotalDynamic++
		in := &s.In

		switch kinds[pc] {
		case isa.KindCompute:
			if in.Op != isa.LI { // LI has no register inputs
				record(pc, 0, in.Src1)
				if in.Op != isa.MOV && in.Op != isa.ADDI && in.Op != isa.FNEG &&
					in.Op != isa.FSQRT && in.Op != isa.FABS && in.Op != isa.I2F && in.Op != isa.F2I {
					record(pc, 1, in.Src2)
				}
				if isa.ReadsDst(in.Op) {
					record(pc, 2, in.Dst)
				}
			}
			if in.Dst != isa.R0 { // R0 writes are discarded: no definition
				regProducer[in.Dst] = pc
			}
		case isa.KindLoad:
			record(pc, 0, in.Src1) // address operand
			li := prof.Loads[pc]
			if li == nil {
				li = &LoadInfo{PC: pc}
				prof.Loads[pc] = li
			}
			li.Count++
			li.ByLevel[hier.Access(s.Addr, false).Level]++
			if li.lastValueSet && li.lastValue == s.Value {
				li.SameValue++
			}
			li.lastValue, li.lastValueSet = s.Value, true
			org, written := memProd[s.Addr]
			if written {
				li.ValueProducer.Add(int32(org.valueProducer))
				set := prof.StoresConsumedBy[org.storePC]
				if set == nil {
					set = make(map[int]bool)
					prof.StoresConsumedBy[org.storePC] = set
				}
				set[pc] = true
			} else {
				li.ValueProducer.Add(NoProducer)
			}
			t := loadTouched[pc]
			if t == nil {
				t = make(map[uint64]bool)
				loadTouched[pc] = t
			}
			t[s.Addr] = true
			// A load is a register def for dependence purposes.
			if in.Dst != isa.R0 {
				regProducer[in.Dst] = pc
			}
		case isa.KindStore:
			record(pc, 0, in.Src1) // address operand
			record(pc, 1, in.Src2) // value operand
			hier.Access(s.Addr, true)
			prof.StoreCount[pc]++
			prof.StoreValueProducer[pc].Add(int32(regProducer[in.Src2]))
			writtenAddrs[s.Addr] = true
			memProd[s.Addr] = memOrigin{valueProducer: regProducer[in.Src2], storePC: pc}
		case isa.KindCondBr:
			// Branches: record condition operand producers too, so the
			// compiler can reason about full dependences if it wants.
			record(pc, 0, in.Src1)
			record(pc, 1, in.Src2)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	// Finalize per-load read-only classification.
	for pc, touched := range loadTouched {
		if touched == nil {
			continue
		}
		ro := true
		for a := range touched {
			if writtenAddrs[a] {
				ro = false
				break
			}
		}
		prof.LoadAllReadOnly[pc] = ro
	}
	words := make([]uint64, 0, len(writtenAddrs))
	for a := range writtenAddrs {
		words = append(words, a>>3)
	}
	slices.Sort(words)
	for _, w := range words {
		prof.Written = mem.AppendWord(prof.Written, w)
	}
	return prof, nil
}

// DominantProducer returns the dominant producer of an operand, or
// (NoProducer, 0, false) if the operand was never observed.
func (p *Profile) DominantProducer(pc, operand int) (int, float64, bool) {
	if pc < 0 || pc >= len(p.Producers) {
		return NoProducer, 0, false
	}
	d := &p.Producers[pc][operand]
	if d.Empty() {
		return NoProducer, 0, false
	}
	return d.Dominant()
}

// SortedLoadPCs returns load PCs in ascending order (deterministic walks).
func (p *Profile) SortedLoadPCs() []int {
	var pcs []int
	for pc, li := range p.Loads {
		if li != nil {
			pcs = append(pcs, pc)
		}
	}
	return pcs
}

// DeadStorePCs returns static stores whose values were never consumed by
// any load outside the given swapped set: if every consuming load of a store
// is swapped for recomputation, the store becomes redundant (§1). Stores
// never consumed at all are reported only if alsoUnread is true (they may
// constitute program output).
func (p *Profile) DeadStorePCs(swapped map[int]bool, alsoUnread bool) []int {
	var out []int
	for st, count := range p.StoreCount {
		if count == 0 {
			continue
		}
		consumers := p.StoresConsumedBy[st]
		if len(consumers) == 0 {
			if alsoUnread {
				out = append(out, st)
			}
			continue
		}
		dead := true
		for ld := range consumers {
			if !swapped[ld] {
				dead = false
				break
			}
		}
		if dead {
			out = append(out, st)
		}
	}
	return out
}
