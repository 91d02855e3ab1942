// Package energy implements the energy and timing model of the AMNESIAC
// evaluation: energy per instruction (EPI) by instruction category, energy
// and round-trip latency per memory-hierarchy level (paper Table 3), the
// technology-node comparison of paper Table 1, and energy-delay-product
// accounting. All energies are in nanojoules, all times in nanoseconds.
package energy

import (
	"fmt"

	"github.com/amnesiac-sim/amnesiac/internal/isa"
)

// Level identifies where in the memory hierarchy an access is serviced.
type Level uint8

// Memory hierarchy levels.
const (
	L1 Level = iota
	L2
	Mem
	NumLevels
)

func (l Level) String() string {
	switch l {
	case L1:
		return "L1"
	case L2:
		return "L2"
	case Mem:
		return "Memory"
	}
	return fmt.Sprintf("level(%d)", uint8(l))
}

// Model holds the machine's energy/timing parameters. The defaults mirror
// paper Table 3 (22nm, 1.09 GHz, Xeon-Phi-like core). The mean EPI over
// all nine non-memory categories is ≈0.45 nJ, the anchor of the paper's
// Rdefault (§5.5: 0.45/52.14 ≈ 0.0086); R() averages only the six compute
// categories, 0.55 nJ, so the default model reports R = 0.55/52.14 ≈ 0.0105,
// the value the reports print.
//
// A Model is read-only once simulation starts: cores, amnesic machines,
// policies, the profiler, and the compiler only ever read it, so a single
// Model is safely shared by the harness's concurrent worker pool (which
// also keys its artifact cache on Model identity). Mutate a Model only
// before handing it to a run; a worker that needs different parameters
// (e.g. BreakEven's RScale sweep) must operate on its own Clone.
type Model struct {
	// FrequencyGHz sets the core clock; one non-memory instruction retires
	// per cycle in the in-order timing model.
	FrequencyGHz float64

	// EPI per instruction category, excluding memory-hierarchy energy for
	// loads and stores (that part is charged per serviced level below).
	EPI [isa.NumCategories]float64

	// ReadEnergy / WriteEnergy / Latency per hierarchy level. Latency is
	// round-trip in nanoseconds.
	ReadEnergy  [NumLevels]float64
	WriteEnergy [NumLevels]float64
	Latency     [NumLevels]float64

	// Amnesic structure costs (§4: "We conservatively model EPI and access
	// latency for Hist after L1-D; for SFile, after the physical
	// registerfile; and for IBuff, after L1-I.")
	HistReadEnergy  float64
	HistWriteEnergy float64
	HistLatency     float64
	SFileEnergy     float64 // per access; folded into recomputing EPI
	IBuffReadEnergy float64
	IBuffLatency    float64
	FetchEnergy     float64 // per-instruction L1-I fetch energy
	FetchLatency    float64 // overlapped in-order fetch: 0 extra by default
	ProbeEnergy     [NumLevels]float64
	ProbeLatency    [NumLevels]float64
	RScale          float64 // scales non-memory EPIs (break-even sweeps, §5.5)
}

// Default returns the paper Table 3 model.
//
//	L1-I (LRU):      32KB 4-way   0.88 nJ  3.66 ns
//	L1-D (LRU, WB):  32KB 8-way   0.88 nJ  3.66 ns
//	L2 (LRU, WB):    512KB 8-way  7.72 nJ  24.77 ns
//	Main memory:     read 52.14 nJ, write 62.14 nJ, 100 ns
//
// Per-category EPIs are anchored to the measured Xeon Phi estimates of [33]
// (average non-memory EPI ≈ 0.45 nJ), with relative category weights taken
// from the McPAT-style fine-tuning the paper describes: moves/simple integer
// ops slightly below the average, multiplies/FP above, FMA and FP divide the
// most expensive.
func Default() *Model {
	m := &Model{
		FrequencyGHz: 1.09,
		RScale:       1.0,
	}
	m.EPI[isa.CatNop] = 0.10
	m.EPI[isa.CatMove] = 0.20
	m.EPI[isa.CatIntALU] = 0.40
	m.EPI[isa.CatIntMul] = 0.60
	m.EPI[isa.CatFPALU] = 0.50
	m.EPI[isa.CatFMA] = 0.70
	m.EPI[isa.CatFPDiv] = 0.90
	m.EPI[isa.CatBranch] = 0.35
	// Loads/stores: issue overhead only; hierarchy energy charged separately.
	m.EPI[isa.CatLoad] = 0.10
	m.EPI[isa.CatStore] = 0.10
	// RCMP models a conditional branch; REC a store to L1-D; RTN a jump
	// (§4). The hierarchy/Hist parts are charged where they occur.
	m.EPI[isa.CatAmnesic] = 0.35

	m.ReadEnergy = [NumLevels]float64{L1: 0.88, L2: 7.72, Mem: 52.14}
	m.WriteEnergy = [NumLevels]float64{L1: 0.88, L2: 7.72, Mem: 62.14}
	m.Latency = [NumLevels]float64{L1: 3.66, L2: 24.77, Mem: 100}

	m.HistReadEnergy = 0.88
	m.HistWriteEnergy = 0.88
	m.HistLatency = 3.66
	m.SFileEnergy = 0.0 // modeled after the physical register file: folded into EPI
	m.IBuffReadEnergy = 0.05
	m.IBuffLatency = 0.0
	m.FetchEnergy = 0.15
	m.FetchLatency = 0.0
	// Probing level Li to resolve an RCMP costs that level's tag-array
	// check (§3.3.1, §5.1): a fraction of the full data access. The L2
	// probe is still an order of magnitude costlier than the L1 probe,
	// which is what makes LLC consistently worse than FLC (§5.1).
	m.ProbeEnergy = [NumLevels]float64{L1: 0.13, L2: 1.16, Mem: 0}
	m.ProbeLatency = [NumLevels]float64{L1: 0.92, L2: 6.19, Mem: 0}
	return m
}

// Clone returns a deep copy of the model, for workers that need private
// parameter mutations while the original stays shared read-only.
func (m *Model) Clone() *Model {
	c := *m
	return &c
}

// CycleNS returns the duration of one core cycle in nanoseconds.
func (m *Model) CycleNS() float64 { return 1.0 / m.FrequencyGHz }

// InstrEnergy returns the EPI of a non-memory-hierarchy instruction of the
// given category, with the RScale knob applied to compute categories.
func (m *Model) InstrEnergy(c isa.Category) float64 {
	e := m.EPI[c]
	switch c {
	case isa.CatLoad, isa.CatStore:
		return e // issue overhead is not part of R's numerator
	}
	return e * m.RScale
}

// LoadEnergy returns hierarchy energy for a load serviced at level l: the
// access at l plus the (cheaper) accesses at every level probed on the way.
func (m *Model) LoadEnergy(l Level) float64 {
	e := 0.0
	for i := L1; i <= l; i++ {
		e += m.ReadEnergy[i]
	}
	return e
}

// StoreEnergy returns hierarchy energy for a store serviced at level l
// (write-back caches: the store writes the first level that owns the line).
func (m *Model) StoreEnergy(l Level) float64 {
	e := 0.0
	for i := L1; i < l; i++ {
		e += m.ReadEnergy[i] // miss lookups on the way down
	}
	return e + m.WriteEnergy[l]
}

// LoadLatency returns the round-trip latency of a load serviced at level l.
func (m *Model) LoadLatency(l Level) float64 { return m.Latency[l] }

// R returns the §5.5 ratio EPI_nonmem / EPI_ld for this model: the mean
// EPI of the six compute categories (move, integer ALU and multiply, FP
// ALU, FMA, FP divide) with RScale applied, over the main-memory load
// energy. The default model gives 0.55/52.14 ≈ 0.0105.
func (m *Model) R() float64 {
	avg := (m.EPI[isa.CatIntALU] + m.EPI[isa.CatIntMul] + m.EPI[isa.CatFPALU] +
		m.EPI[isa.CatFMA] + m.EPI[isa.CatFPDiv] + m.EPI[isa.CatMove]) / 6 * m.RScale
	return avg / m.ReadEnergy[Mem]
}

// Account counts the events of one simulation and prices them once. Every
// charge of the model is a per-event constant (paper Table 3: category
// EPIs, per-level read/write energy and latency, Hist, IBuff and probe
// costs), so a run's energy and time are dot products of these counts with
// the model's prices. Simulators only add counts; Price writes the energy
// and time fields. Counts gathered under one model can be re-priced under
// another without re-simulating, which is how the break-even sweep (§5.5)
// scales R.
type Account struct {
	// Dynamic instruction counts.
	Instrs      uint64
	Loads       uint64
	Stores      uint64
	ByCategory  [isa.NumCategories]uint64
	Recomputed  uint64 // RCMPs that fired recomputation
	RcmpLoads   uint64 // RCMPs that performed the load, each paying a branch-like overhead
	SliceInstrs uint64 // recomputing instructions executed inside slices

	// Memory-hierarchy events by level.
	LoadsAt    [NumLevels]uint64 // loads serviced at each level
	StoresAt   [NumLevels]uint64 // stores serviced at each level
	Writebacks [NumLevels]uint64 // dirty-line writebacks into each level
	Probes     [NumLevels]uint64 // policy probes of each level

	// Amnesic structures and instruction supply.
	HistReads  uint64
	HistWrites uint64 // REC checkpoints, modeled after a store to L1-D
	Fetches    uint64 // L1-I fetches, including IBuff misses
	IBuffHits  uint64

	// Priced totals, in nJ and ns. Only Price writes them.
	EnergyNJ float64
	TimeNS   float64

	// Priced energy by source, for the paper's Table 4 breakdown. The first
	// five sum to EnergyNJ; ProbeNJ is the part of LoadNJ spent probing.
	LoadNJ     float64 // loads (issue + hierarchy), incl. RCMPs that load, and policy probes
	StoreNJ    float64 // stores (issue + hierarchy), dirty writebacks, and REC Hist writes
	NonMemNJ   float64 // compute/branch/move/amnesic instructions and the RCMP-load overhead
	HistReadNJ float64 // Hist reads during recomputation (Table 4 column)
	ProbeNJ    float64 // policy cache probing (part of LoadNJ)
	FetchNJ    float64 // instruction supply (L1-I fetches and IBuff hits)
}

// AddInstr counts one retired non-memory instruction of category c.
func (a *Account) AddInstr(c isa.Category) {
	a.Instrs++
	a.ByCategory[c]++
}

// AddLoad counts one load serviced at level l.
func (a *Account) AddLoad(l Level) {
	a.Instrs++
	a.Loads++
	a.ByCategory[isa.CatLoad]++
	a.LoadsAt[l]++
}

// AddStore counts one store serviced at level l.
func (a *Account) AddStore(l Level) {
	a.Instrs++
	a.Stores++
	a.ByCategory[isa.CatStore]++
	a.StoresAt[l]++
}

// AddWritebacks counts the dirty-line writebacks one access caused into L2
// and into memory.
func (a *Account) AddWritebacks(toL2, toMem int) {
	a.Writebacks[L2] += uint64(toL2)
	a.Writebacks[Mem] += uint64(toMem)
}

// Add adds b's counts into a, leaving a's priced fields alone: price a
// after the last Add. Several lanes of one amnesic pass add the pass's
// shared counts into each lane's own this way.
func (a *Account) Add(b *Account) {
	a.Instrs += b.Instrs
	a.Loads += b.Loads
	a.Stores += b.Stores
	for c := range a.ByCategory {
		a.ByCategory[c] += b.ByCategory[c]
	}
	a.Recomputed += b.Recomputed
	a.RcmpLoads += b.RcmpLoads
	a.SliceInstrs += b.SliceInstrs
	for l := L1; l < NumLevels; l++ {
		a.LoadsAt[l] += b.LoadsAt[l]
		a.StoresAt[l] += b.StoresAt[l]
		a.Writebacks[l] += b.Writebacks[l]
		a.Probes[l] += b.Probes[l]
	}
	a.HistReads += b.HistReads
	a.HistWrites += b.HistWrites
	a.Fetches += b.Fetches
	a.IBuffHits += b.IBuffHits
}

// Price writes the energy buckets, EnergyNJ and TimeNS from the counts
// under m, replacing any earlier pricing. The terms are summed in one fixed
// order, so equal counts priced under equal models give bit-identical
// results, however the counts were gathered.
//
// Non-memory instructions cost their category EPI and one cycle; a load
// costs its issue EPI plus LoadEnergy and the latency of its servicing
// level; a store its issue EPI plus StoreEnergy and L1 latency (write-back
// L1-D); writebacks cost the write energy of the level written, off the
// critical path. Probes, Hist accesses, L1-I fetches and IBuff hits cost
// their own energy and latency.
func (a *Account) Price(m *Model) {
	var nonMem, cycles float64
	for c, n := range a.ByCategory {
		if cat := isa.Category(c); cat != isa.CatLoad && cat != isa.CatStore {
			nonMem += float64(n) * m.InstrEnergy(cat)
			cycles += float64(n)
		}
	}
	nonMem += float64(a.RcmpLoads) * m.InstrEnergy(isa.CatAmnesic)

	var load, store, probe, t float64
	for l := L1; l < NumLevels; l++ {
		load += float64(a.LoadsAt[l]) * (m.InstrEnergy(isa.CatLoad) + m.LoadEnergy(l))
		store += float64(a.StoresAt[l]) * (m.InstrEnergy(isa.CatStore) + m.StoreEnergy(l))
		store += float64(a.Writebacks[l]) * m.WriteEnergy[l]
		probe += float64(a.Probes[l]) * m.ProbeEnergy[l]
		t += float64(a.LoadsAt[l])*m.LoadLatency(l) + float64(a.Probes[l])*m.ProbeLatency[l]
	}
	store += float64(a.HistWrites) * m.HistWriteEnergy

	a.LoadNJ = load + probe
	a.StoreNJ = store
	a.NonMemNJ = nonMem
	a.HistReadNJ = float64(a.HistReads) * m.HistReadEnergy
	a.ProbeNJ = probe
	a.FetchNJ = float64(a.Fetches)*m.FetchEnergy + float64(a.IBuffHits)*m.IBuffReadEnergy
	a.EnergyNJ = a.LoadNJ + a.StoreNJ + a.NonMemNJ + a.HistReadNJ + a.FetchNJ
	a.TimeNS = cycles*m.CycleNS() + t + float64(a.Stores)*m.Latency[L1] +
		float64(a.HistReads+a.HistWrites)*m.HistLatency +
		float64(a.Fetches)*m.FetchLatency + float64(a.IBuffHits)*m.IBuffLatency
}

// EDP returns the energy-delay product in nJ·ns.
func (a *Account) EDP() float64 { return a.EnergyNJ * a.TimeNS }

// CheckConsistency verifies the count identities every simulation keeps:
// each retired instruction carries exactly one category, and the load and
// store totals equal both their category counts and the sums of their
// per-level splits. The differential tester asserts them after every
// simulation as a metamorphic invariant.
func (a *Account) CheckConsistency() error {
	var byCat, loads, stores uint64
	for _, n := range a.ByCategory {
		byCat += n
	}
	for l := L1; l < NumLevels; l++ {
		loads += a.LoadsAt[l]
		stores += a.StoresAt[l]
	}
	switch {
	case byCat != a.Instrs:
		return fmt.Errorf("energy: category counts sum to %d, %d instructions retired", byCat, a.Instrs)
	case a.ByCategory[isa.CatLoad] != a.Loads || loads != a.Loads:
		return fmt.Errorf("energy: %d loads, %d in the load category, %d by level", a.Loads, a.ByCategory[isa.CatLoad], loads)
	case a.ByCategory[isa.CatStore] != a.Stores || stores != a.Stores:
		return fmt.Errorf("energy: %d stores, %d in the store category, %d by level", a.Stores, a.ByCategory[isa.CatStore], stores)
	}
	return nil
}

// Breakdown returns the percent share of load / store / non-mem / hist-read
// energy, the split the paper's Table 4 reports. Fetch and probe energy are
// folded into non-mem and load respectively (probe already is).
func (a *Account) Breakdown() (load, store, nonmem, hist float64) {
	total := a.EnergyNJ
	if total == 0 {
		return 0, 0, 0, 0
	}
	load = 100 * a.LoadNJ / total
	store = 100 * a.StoreNJ / total
	hist = 100 * a.HistReadNJ / total
	nonmem = 100 - load - store - hist
	return load, store, nonmem, hist
}

// TechEntry is one column of paper Table 1 (from Keckler et al. [18]).
type TechEntry struct {
	Node        string  // e.g. "40nm"
	Variant     string  // "", "HP", "LP"
	VoltageV    float64 // operating voltage
	SRAMLoadFMA float64 // 64-bit SRAM load energy / 64-bit FMA energy
}

// Table1 returns the communication-vs-computation energy comparison of
// paper Table 1.
func Table1() []TechEntry {
	return []TechEntry{
		{Node: "40nm", Variant: "", VoltageV: 0.9, SRAMLoadFMA: 1.55},
		{Node: "10nm", Variant: "HP", VoltageV: 0.75, SRAMLoadFMA: 5.75},
		{Node: "10nm", Variant: "LP", VoltageV: 0.65, SRAMLoadFMA: 5.77},
	}
}

// OffChipRatio40nm is the paper's §1 figure: off-chip access energy exceeds
// 50× FMA energy even at 40nm.
const OffChipRatio40nm = 50.0
