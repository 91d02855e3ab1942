package energy

import (
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"testing"

	"github.com/amnesiac-sim/amnesiac/internal/isa"
)

func TestDefaultModelMatchesPaper(t *testing.T) {
	m := Default()
	if m.ReadEnergy[L1] != 0.88 || m.ReadEnergy[L2] != 7.72 || m.ReadEnergy[Mem] != 52.14 {
		t.Errorf("read energies diverge from Table 3: %+v", m.ReadEnergy)
	}
	if m.WriteEnergy[Mem] != 62.14 {
		t.Errorf("memory write energy = %v, want 62.14", m.WriteEnergy[Mem])
	}
	if m.Latency[L1] != 3.66 || m.Latency[L2] != 24.77 || m.Latency[Mem] != 100 {
		t.Errorf("latencies diverge from Table 3: %+v", m.Latency)
	}
	if m.FrequencyGHz != 1.09 {
		t.Errorf("frequency = %v, want 1.09", m.FrequencyGHz)
	}
	// Rdefault ≈ 0.0086 (§5.5).
	if r := m.R(); math.Abs(r-0.0086) > 0.002 {
		t.Errorf("Rdefault = %v, want ≈0.0086", r)
	}
}

func TestLoadEnergyMonotonic(t *testing.T) {
	m := Default()
	if !(m.LoadEnergy(L1) < m.LoadEnergy(L2) && m.LoadEnergy(L2) < m.LoadEnergy(Mem)) {
		t.Error("load energy must grow down the hierarchy")
	}
	if m.LoadEnergy(Mem) != 0.88+7.72+52.14 {
		t.Errorf("Mem load energy = %v", m.LoadEnergy(Mem))
	}
	if m.StoreEnergy(L1) != 0.88 {
		t.Errorf("L1 store energy = %v", m.StoreEnergy(L1))
	}
}

func TestRScaleOnlyAffectsCompute(t *testing.T) {
	m := Default()
	m.RScale = 3
	if got := m.InstrEnergy(isa.CatIntALU); math.Abs(got-3*m.EPI[isa.CatIntALU]) > 1e-12 {
		t.Errorf("scaled ALU EPI = %v", got)
	}
	if m.InstrEnergy(isa.CatLoad) != 0.10 {
		t.Error("RScale must not scale load issue energy")
	}
	if m.LoadEnergy(Mem) != 0.88+7.72+52.14 {
		t.Error("RScale must not scale hierarchy energy")
	}
}

func TestAccountBreakdownSumsTo100(t *testing.T) {
	var a Account
	a.AddInstr(isa.CatIntALU)
	a.AddLoad(Mem)
	a.AddStore(L1)
	a.HistReads++
	a.Probes[L1]++
	a.Price(Default())
	l, s, n, h := a.Breakdown()
	if sum := l + s + n + h; math.Abs(sum-100) > 1e-9 {
		t.Errorf("breakdown sums to %v", sum)
	}
	if a.Instrs != 3 || a.Loads != 1 || a.Stores != 1 {
		t.Errorf("counts wrong: %+v", a)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Error(err)
	}
}

func TestTable1Reference(t *testing.T) {
	tb := Table1()
	if len(tb) != 3 {
		t.Fatalf("Table 1 has %d entries, want 3", len(tb))
	}
	if tb[0].SRAMLoadFMA != 1.55 || tb[1].SRAMLoadFMA != 5.75 || tb[2].SRAMLoadFMA != 5.77 {
		t.Errorf("Table 1 ratios diverge from the paper: %+v", tb)
	}
	// The paper's headline: the ratio grows ~4x from 40nm to 10nm.
	if tb[1].SRAMLoadFMA <= 2*tb[0].SRAMLoadFMA {
		t.Error("10nm ratio should far exceed 40nm ratio")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := Default()
	c := m.Clone()
	c.RScale = 99
	if m.RScale == 99 {
		t.Error("Clone shares state")
	}
}

// randomAccount returns a count vector with up to ~1e9 events per field,
// internally consistent (CheckConsistency holds).
func randomAccount(rng *rand.Rand) Account {
	var a Account
	n := func() uint64 { return uint64(rng.Int63n(1_000_000_000)) }
	for c := range a.ByCategory {
		if cat := isa.Category(c); cat != isa.CatLoad && cat != isa.CatStore {
			a.ByCategory[c] = n()
			a.Instrs += a.ByCategory[c]
		}
	}
	for l := L1; l < NumLevels; l++ {
		a.LoadsAt[l], a.StoresAt[l], a.Writebacks[l], a.Probes[l] = n(), n(), n(), n()
		a.Loads += a.LoadsAt[l]
		a.Stores += a.StoresAt[l]
	}
	a.ByCategory[isa.CatLoad], a.ByCategory[isa.CatStore] = a.Loads, a.Stores
	a.Instrs += a.Loads + a.Stores
	a.RcmpLoads, a.HistReads, a.HistWrites, a.Fetches, a.IBuffHits = n(), n(), n(), n(), n()
	return a
}

// term is one (event count, per-event price) pair of a dot product.
type term struct {
	n     uint64
	price float64
}

// exactDot sums n·price over the terms in exact rational arithmetic and
// rounds once.
func exactDot(terms []term) float64 {
	sum := new(big.Rat)
	for _, t := range terms {
		p := new(big.Rat).SetFloat64(t.price)
		sum.Add(sum, p.Mul(p, new(big.Rat).SetInt(new(big.Int).SetUint64(t.n))))
	}
	f, _ := sum.Float64()
	return f
}

// TestPriceMatchesExactDotProduct checks Price against an exact dot product
// of each bucket's counts with the model's per-event prices, on random
// count vectors under the default model and one with the compute EPIs
// scaled 37x.
func TestPriceMatchesExactDotProduct(t *testing.T) {
	scaled := Default()
	scaled.RScale = 37
	rng := rand.New(rand.NewSource(1))
	for _, m := range []*Model{Default(), scaled} {
		for i := 0; i < 200; i++ {
			a := randomAccount(rng)
			a.Price(m)
			var load, store, nonMem, hist, probe, fetch, tm []term
			for c, n := range a.ByCategory {
				if cat := isa.Category(c); cat != isa.CatLoad && cat != isa.CatStore {
					nonMem = append(nonMem, term{n, m.InstrEnergy(cat)})
					tm = append(tm, term{n, m.CycleNS()})
				}
			}
			nonMem = append(nonMem, term{a.RcmpLoads, m.InstrEnergy(isa.CatAmnesic)})
			for l := L1; l < NumLevels; l++ {
				load = append(load, term{a.LoadsAt[l], m.InstrEnergy(isa.CatLoad) + m.LoadEnergy(l)})
				store = append(store,
					term{a.StoresAt[l], m.InstrEnergy(isa.CatStore) + m.StoreEnergy(l)},
					term{a.Writebacks[l], m.WriteEnergy[l]})
				probe = append(probe, term{a.Probes[l], m.ProbeEnergy[l]})
				tm = append(tm, term{a.LoadsAt[l], m.Latency[l]}, term{a.Probes[l], m.ProbeLatency[l]})
			}
			store = append(store, term{a.HistWrites, m.HistWriteEnergy})
			hist = append(hist, term{a.HistReads, m.HistReadEnergy})
			fetch = append(fetch, term{a.Fetches, m.FetchEnergy}, term{a.IBuffHits, m.IBuffReadEnergy})
			tm = append(tm, term{a.Stores, m.Latency[L1]}, term{a.HistReads + a.HistWrites, m.HistLatency},
				term{a.Fetches, m.FetchLatency}, term{a.IBuffHits, m.IBuffLatency})
			load = append(load, probe...)
			var all []term
			for _, b := range [][]term{load, store, nonMem, hist, fetch} {
				all = append(all, b...)
			}
			for _, c := range []struct {
				name string
				got  float64
				want []term
			}{
				{"EnergyNJ", a.EnergyNJ, all}, {"TimeNS", a.TimeNS, tm},
				{"LoadNJ", a.LoadNJ, load}, {"StoreNJ", a.StoreNJ, store},
				{"NonMemNJ", a.NonMemNJ, nonMem}, {"HistReadNJ", a.HistReadNJ, hist},
				{"ProbeNJ", a.ProbeNJ, probe}, {"FetchNJ", a.FetchNJ, fetch},
			} {
				want := exactDot(c.want)
				if math.Abs(c.got-want) > 1e-13*math.Abs(want) {
					t.Fatalf("RScale %v vector %d: %s = %.17g, exact dot product %.17g", m.RScale, i, c.name, c.got, want)
				}
			}
		}
	}
}

// TestCheckConsistencyIdentities: a consistent account passes, and
// breaking any one count identity is reported.
func TestCheckConsistencyIdentities(t *testing.T) {
	a := randomAccount(rand.New(rand.NewSource(2)))
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	for name, breakIt := range map[string]func(*Account){
		"instrs":         func(a *Account) { a.Instrs++ },
		"load category":  func(a *Account) { a.ByCategory[isa.CatLoad]++; a.Instrs++ },
		"load level":     func(a *Account) { a.LoadsAt[L2]++ },
		"store category": func(a *Account) { a.ByCategory[isa.CatStore]--; a.ByCategory[isa.CatNop]++ },
		"store level":    func(a *Account) { a.StoresAt[Mem]-- },
	} {
		b := a
		breakIt(&b)
		if b.CheckConsistency() == nil {
			t.Errorf("%s: broken identity not reported", name)
		}
	}
}

// TestAddSumsEveryCount fills every count of two accounts with distinct
// values, by reflection so a count added later is covered too, and demands
// Add sum each one and leave the priced fields alone.
func TestAddSumsEveryCount(t *testing.T) {
	var a, b Account
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	n := uint64(1)
	fill := func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Uint64:
			v.SetUint(n)
			n++
		case reflect.Float64:
			v.SetFloat(float64(n))
			n++
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				v.Index(i).SetUint(n)
				n++
			}
		}
	}
	for i := 0; i < av.NumField(); i++ {
		fill(av.Field(i))
		fill(bv.Field(i))
	}
	before := a
	a.Add(&b)
	wv, xv := reflect.ValueOf(before), reflect.ValueOf(a)
	for i := 0; i < xv.NumField(); i++ {
		name := xv.Type().Field(i).Name
		switch f := xv.Field(i); f.Kind() {
		case reflect.Uint64:
			if want := wv.Field(i).Uint() + bv.Field(i).Uint(); f.Uint() != want {
				t.Errorf("%s = %d, want %d", name, f.Uint(), want)
			}
		case reflect.Float64:
			if f.Float() != wv.Field(i).Float() {
				t.Errorf("%s moved to %v: Add must leave priced fields alone", name, f.Float())
			}
		case reflect.Array:
			for j := 0; j < f.Len(); j++ {
				if want := wv.Field(i).Index(j).Uint() + bv.Field(i).Index(j).Uint(); f.Index(j).Uint() != want {
					t.Errorf("%s[%d] = %d, want %d", name, j, f.Index(j).Uint(), want)
				}
			}
		default:
			t.Fatalf("field %s: unhandled kind %s", name, f.Kind())
		}
	}
}
