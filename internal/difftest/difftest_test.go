package difftest

import (
	"errors"
	"flag"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/amnesiac-sim/amnesiac/internal/asm"
	"github.com/amnesiac-sim/amnesiac/internal/cpu"
	"github.com/amnesiac-sim/amnesiac/internal/energy"
	"github.com/amnesiac-sim/amnesiac/internal/gen"
	"github.com/amnesiac-sim/amnesiac/internal/isa"
	"github.com/amnesiac-sim/amnesiac/internal/mem"
)

var (
	seedFlag = flag.Int64("difftest.seed", -1,
		"replay one generator seed through the differential oracle (from a Divergence report)")
	seedCount = flag.Int("difftest.n", 500,
		"number of generator seeds TestDiffOracle checks")
	traceFlag = flag.Bool("difftest.trace", false,
		"force trace reuse on (threshold 1) for the amnesic policies too, asserting traced == untraced bit-for-bit")
	cowFlag = flag.Bool("difftest.cow", false,
		"rerun the classic core and every amnesic policy on a copy-on-write fork of the sealed image, asserting forked == cloned bit-for-bit")
)

// hierarchyWalk builds a program whose accesses leave L1, with its
// initial memory. Four line-stride walks: stores over 1 MiB of region B
// (misses to memory; dirty victims into L2, then into memory), loads over
// 1 MiB of region A (misses evicting those dirty lines from both levels),
// then loads and stores over A's last 64 KiB, lines L1 has lost but L2
// still holds. Generated programs stay inside a 2 KiB arena, so once warm
// their accesses never leave L1.
func hierarchyWalk() (*isa.Program, *mem.Memory) {
	const line, kib = 64, 1 << 10
	const a, b = 0x100000, 0x200000
	bld := asm.NewBuilder("hierarchy-walk")
	walk := func(label string, store bool, from, bytes int64) {
		bld.Li(1, from).Li(2, bytes/line).Li(5, 1)
		bld.Label(label)
		if store {
			bld.Add(4, 4, 1).St(1, 0, 4)
		} else {
			bld.Ld(3, 1, 0).Add(4, 4, 3)
		}
		bld.Addi(1, 1, line).Sub(2, 2, 5).Bne(2, isa.R0, label)
	}
	walk("dirty", true, b, 1024*kib)
	walk("evict", false, a, 1024*kib)
	walk("reload", false, a+960*kib, 64*kib)
	walk("rewrite", true, a+960*kib, 64*kib)
	bld.Halt()
	initial := mem.NewMemory()
	for off := uint64(0); off < 1024*kib; off += line {
		initial.Store(a+off, 7*off+1)
	}
	return bld.MustAssemble(), initial
}

// TestDiffOracle is the main oracle sweep: N seeded random programs plus
// the hierarchy walk, each executed by the flat reference, the classic
// core, and the amnesic machine under all five policies, asserting
// identical final register files, memory images, and store streams. With
// -difftest.seed=N it replays exactly one reported seed instead.
func TestDiffOracle(t *testing.T) {
	opts := DefaultOptions()
	opts.TraceForce = *traceFlag
	opts.CowForce = *cowFlag
	if *seedFlag >= 0 {
		if err := CheckSeed(*seedFlag, opts); err != nil {
			t.Fatalf("seed %d: %v", *seedFlag, err)
		}
		return
	}
	walk, initial := hierarchyWalk()
	res, err := cpu.RunProgram(opts.Model, walk, initial.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if res.Serviced[energy.L2] == 0 {
		t.Fatalf("hierarchy walk serviced no access at L2: %v", res.Serviced)
	}
	if err := Check(walk, initial, opts); err != nil {
		t.Error(err)
	}
	n := *seedCount
	if testing.Short() {
		n = 100
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		failed  []error
		workers = runtime.GOMAXPROCS(0)
		seeds   = make(chan int64, workers)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := range seeds {
				if err := CheckSeed(seed, opts); err != nil {
					mu.Lock()
					failed = append(failed, err)
					mu.Unlock()
				}
			}
		}()
	}
	for seed := int64(0); seed < int64(n); seed++ {
		seeds <- seed
	}
	close(seeds)
	wg.Wait()
	for _, err := range failed {
		t.Error(err)
	}
	if len(failed) == 0 {
		t.Logf("%d seeds: classic and amnesic agree under all %d policies", n, len(opts.Policies))
	}
}

// TestTamperedRTNCaught is the oracle's negative control: corrupt every
// value an RTN copies into the eliminated load's destination register and
// demand the oracle notices. An oracle that cannot catch a deliberately
// broken RTN would be vacuous.
func TestTamperedRTNCaught(t *testing.T) {
	opts := DefaultOptions()
	opts.TamperRTN = 0xDEADBEEF
	for seed := int64(0); seed < 200; seed++ {
		err := CheckSeed(seed, opts)
		if err == nil {
			continue // no recomputation fired on this seed, or the tampered value washed out
		}
		var d *Divergence
		if !errors.As(err, &d) {
			t.Fatalf("seed %d: want *Divergence, got %v", seed, err)
		}
		if d.Seed != seed {
			t.Errorf("divergence carries seed %d, want %d", d.Seed, seed)
		}
		msg := err.Error()
		for _, want := range []string{"difftest: divergence", "minimized program", "replay: go test"} {
			if !strings.Contains(msg, want) {
				t.Errorf("report missing %q:\n%s", want, msg)
			}
		}
		return
	}
	t.Fatal("tampered RTN survived 200 seeds: the oracle is not sensitive to broken value copies")
}

// TestCowOracleSmoke always exercises the COW parity oracle on a handful
// of seeds, so the write barrier stays covered even in runs that skip CI's
// full -difftest.cow sweep.
func TestCowOracleSmoke(t *testing.T) {
	opts := DefaultOptions()
	opts.CowForce = true
	n := int64(25)
	if testing.Short() {
		n = 5
	}
	for seed := int64(0); seed < n; seed++ {
		if err := CheckSeed(seed, opts); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestShrinkMinimizes checks that the reported program for a tampered run
// is genuinely smaller than the original and still diverges on its own.
func TestShrinkMinimizes(t *testing.T) {
	opts := DefaultOptions()
	opts.TamperRTN = 1
	opts.Shrink = false
	for seed := int64(0); seed < 200; seed++ {
		prog, initial, err := gen.Generate(seed, opts.Gen)
		if err != nil {
			t.Fatal(err)
		}
		if Check(prog, initial, opts) == nil {
			continue
		}
		small := Shrink(prog, initial, opts)
		if len(small.Code) != len(prog.Code) {
			t.Fatalf("shrinking must preserve program length (%d -> %d)", len(prog.Code), len(small.Code))
		}
		orig, live := countLive(prog), countLive(small)
		if live >= orig {
			t.Errorf("seed %d: shrink kept %d live instructions of %d", seed, live, orig)
		}
		var d *Divergence
		if !errors.As(Check(small, initial, opts), &d) {
			t.Fatalf("seed %d: minimized program no longer diverges", seed)
		}
		t.Logf("seed %d: shrunk %d -> %d live instructions", seed, orig, live)
		return
	}
	t.Fatal("no tampered seed diverged in 200 tries")
}

func countLive(p *isa.Program) int {
	n := 0
	for _, in := range p.Code {
		if in.Op != isa.NOP {
			n++
		}
	}
	return n
}

// TestCheckRejectsIncompleteOptions pins the plain-error (not Divergence)
// path for infrastructure misuse.
func TestCheckRejectsIncompleteOptions(t *testing.T) {
	prog, initial, err := gen.Generate(1, gen.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	err = Check(prog, initial, Options{})
	if err == nil {
		t.Fatal("zero options accepted")
	}
	var d *Divergence
	if errors.As(err, &d) {
		t.Fatalf("infrastructure error misreported as divergence: %v", err)
	}
}

// TestAccountDiffNamesEveryField perturbs each energy.Account field in turn
// and demands accountDiff name it, so a divergence in any count or priced
// field is reported by name.
func TestAccountDiffNamesEveryField(t *testing.T) {
	var want energy.Account
	typ := reflect.TypeOf(want)
	for i := 0; i < typ.NumField(); i++ {
		got := want
		f := reflect.ValueOf(&got).Elem().Field(i)
		switch f.Kind() {
		case reflect.Float64:
			f.SetFloat(1)
		case reflect.Uint64:
			f.SetUint(1)
		case reflect.Array:
			f.Index(f.Len() - 1).SetUint(1)
		default:
			t.Fatalf("field %s: unhandled kind %s", typ.Field(i).Name, f.Kind())
		}
		name := typ.Field(i).Name
		if msg := accountDiff(&got, &want); !strings.HasPrefix(msg, name+" ") {
			t.Errorf("perturbing %s: accountDiff says %q", name, msg)
		}
	}
}
