// Package amnesiac's root benchmark harness regenerates every table and
// figure of the paper's evaluation as testing.B benchmarks (DESIGN.md maps
// each to its experiment), plus ablation benches for the design choices the
// reproduction calls out. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark reports domain metrics (EDP gain, energies) through
// b.ReportMetric, so `bench_output.txt` doubles as the measured record in
// EXPERIMENTS.md.
package amnesiac_test

import (
	"fmt"
	"io"
	"runtime"
	"syscall"
	"testing"
	"time"

	"github.com/amnesiac-sim/amnesiac/internal/amnesic"
	"github.com/amnesiac-sim/amnesiac/internal/compiler"
	"github.com/amnesiac-sim/amnesiac/internal/cpu"
	"github.com/amnesiac-sim/amnesiac/internal/energy"
	"github.com/amnesiac-sim/amnesiac/internal/harness"
	"github.com/amnesiac-sim/amnesiac/internal/isa"
	"github.com/amnesiac-sim/amnesiac/internal/mem"
	"github.com/amnesiac-sim/amnesiac/internal/policy"
	"github.com/amnesiac-sim/amnesiac/internal/profile"
	"github.com/amnesiac-sim/amnesiac/internal/uarch"
	"github.com/amnesiac-sim/amnesiac/internal/workloads"
)

// benchScale keeps the fleet of full-suite benchmarks tractable while
// preserving the memory-bound character (cold regions stay >= 2x L2).
const benchScale = 0.3

func benchConfig() harness.Config {
	cfg := harness.DefaultConfig()
	cfg.Scale = benchScale
	return cfg
}

var suiteCache []*harness.BenchResult

func responsiveResults(b *testing.B) []*harness.BenchResult {
	b.Helper()
	if suiteCache == nil {
		res, err := harness.RunSuite(benchConfig(), workloads.Responsive())
		if err != nil {
			b.Fatal(err)
		}
		suiteCache = res
	}
	return suiteCache
}

// BenchmarkTable1 regenerates the technology-scaling comparison.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		harness.Table1(io.Discard)
	}
	e := energy.Table1()
	b.ReportMetric(e[0].SRAMLoadFMA, "ratio40nm")
	b.ReportMetric(e[1].SRAMLoadFMA, "ratio10nmHP")
}

// BenchmarkTable2 walks the benchmark registry.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		harness.Table2(io.Discard)
	}
	b.ReportMetric(float64(len(workloads.All())), "benchmarks")
}

// BenchmarkTable3 renders the architecture configuration.
func BenchmarkTable3(b *testing.B) {
	m := energy.Default()
	for i := 0; i < b.N; i++ {
		harness.Table3(io.Discard, m)
	}
	b.ReportMetric(m.R(), "Rdefault")
}

// gainBench runs the responsive suite once and reports one gain metric per
// benchmark×policy via sub-benchmarks.
func gainBench(b *testing.B, metric string, f func(*harness.PolicyRun) float64) {
	results := responsiveResults(b)
	for _, r := range results {
		for _, label := range harness.PolicyLabels {
			r, label := r, label
			b.Run(fmt.Sprintf("%s/%s", r.Workload.Name, label), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_ = f(r.Runs[label])
				}
				b.ReportMetric(f(r.Runs[label]), metric)
			})
		}
	}
}

// BenchmarkFig3 reports EDP gain per benchmark and policy (paper Fig. 3).
func BenchmarkFig3(b *testing.B) {
	gainBench(b, "edp_gain_%", func(p *harness.PolicyRun) float64 { return p.EDPGain })
}

// BenchmarkFig4 reports energy gain (paper Fig. 4).
func BenchmarkFig4(b *testing.B) {
	gainBench(b, "energy_gain_%", func(p *harness.PolicyRun) float64 { return p.EnergyGain })
}

// BenchmarkFig5 reports execution-time reduction (paper Fig. 5).
func BenchmarkFig5(b *testing.B) {
	gainBench(b, "time_gain_%", func(p *harness.PolicyRun) float64 { return p.TimeGain })
}

// BenchmarkTable4 reports instruction-count inflation and load-count
// reduction under the Compiler policy (paper Table 4).
func BenchmarkTable4(b *testing.B) {
	results := responsiveResults(b)
	for _, r := range results {
		r := r
		b.Run(r.Workload.Name, func(b *testing.B) {
			run := r.Runs["Compiler"]
			for i := 0; i < b.N; i++ {
				harness.Table4(io.Discard, results[:1])
			}
			dIns := 100*float64(run.Acct.Instrs)/float64(r.Classic.Acct.Instrs) - 100
			dLd := 100 - 100*float64(run.Acct.Loads)/float64(r.Classic.Acct.Loads)
			b.ReportMetric(dIns, "instr_increase_%")
			b.ReportMetric(dLd, "load_decrease_%")
		})
	}
}

// BenchmarkTable5 reports the swapped loads' classic service profile.
func BenchmarkTable5(b *testing.B) {
	results := responsiveResults(b)
	for _, r := range results {
		r := r
		b.Run(r.Workload.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				harness.Table5(io.Discard, results[:1])
			}
			run := r.Runs["Compiler"]
			b.ReportMetric(run.Swapped[energy.L1], "L1_%")
			b.ReportMetric(run.Swapped[energy.L2], "L2_%")
			b.ReportMetric(run.Swapped[energy.Mem], "Mem_%")
		})
	}
}

// BenchmarkFig6 reports RSlice length distribution aggregates.
func BenchmarkFig6(b *testing.B) {
	results := responsiveResults(b)
	for i := 0; i < b.N; i++ {
		harness.Fig6(io.Discard, results)
	}
	short, long, total := 0, 0, 0
	for _, r := range results {
		for _, si := range r.Ann.Slices {
			total++
			if si.Slice.Len() < 10 {
				short++
			}
			if si.Slice.Len() >= 50 {
				long++
			}
		}
	}
	if total > 0 {
		b.ReportMetric(100*float64(short)/float64(total), "below10_%")
		b.ReportMetric(100*float64(long)/float64(total), "above50_%")
	}
}

// BenchmarkFig7 reports the non-recomputable-input share and Hist sizing.
func BenchmarkFig7(b *testing.B) {
	results := responsiveResults(b)
	for i := 0; i < b.N; i++ {
		harness.Fig7(io.Discard, results)
	}
	nc, total, maxHist := 0, 0, 0
	for _, r := range results {
		for _, si := range r.Ann.Slices {
			total++
			if si.Slice.HasNonRecomputable() {
				nc++
			}
		}
		if h := r.Runs["Compiler"].Stat.HistMaxUsed; h > maxHist {
			maxHist = h
		}
	}
	if total > 0 {
		b.ReportMetric(100*float64(nc)/float64(total), "with_nc_%")
	}
	b.ReportMetric(float64(maxHist), "hist_highwater")
}

// BenchmarkFig8 reports value-locality extremes across swapped loads.
func BenchmarkFig8(b *testing.B) {
	results := responsiveResults(b)
	for i := 0; i < b.N; i++ {
		harness.Fig8(io.Discard, results)
	}
	for _, r := range results {
		var maxLoc float64
		for _, si := range r.Ann.Slices {
			if l := r.Profile.Loads[si.LoadPC].ValueLocality(); l > maxLoc {
				maxLoc = l
			}
		}
		switch r.Workload.Name {
		case "bfs":
			b.ReportMetric(100*maxLoc, "bfs_locality_%")
		case "sr":
			b.ReportMetric(100*maxLoc, "sr_locality_%")
		case "cg":
			b.ReportMetric(100*maxLoc, "cg_locality_%")
		}
	}
}

// BenchmarkTable6 reports break-even R factors (paper Table 6) for three
// representative benchmarks (the full sweep lives in cmd/experiments).
func BenchmarkTable6(b *testing.B) {
	for _, name := range []string{"is", "bfs", "mcf"} {
		name := name
		b.Run(name, func(b *testing.B) {
			w, err := workloads.Get(name)
			if err != nil {
				b.Fatal(err)
			}
			var be float64
			for i := 0; i < b.N; i++ {
				be, err = harness.BreakEven(benchConfig(), w, 200)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(be, "breakeven_R_factor")
		})
	}
}

// --- Ablations (DESIGN.md) ---

func ablationSetup(b *testing.B, name string, opts compiler.Options) (*energy.Model, *compiler.Annotated, *mem.Memory, *cpu.Result) {
	b.Helper()
	w, err := workloads.Get(name)
	if err != nil {
		b.Fatal(err)
	}
	model := energy.Default()
	prog, initial := w.Build(benchScale)
	prof, err := profile.Collect(model, prog, initial)
	if err != nil {
		b.Fatal(err)
	}
	ann, err := compiler.Compile(model, prog, prof, initial, opts)
	if err != nil {
		b.Fatal(err)
	}
	classic, err := cpu.RunProgram(model, prog, initial.Clone())
	if err != nil {
		b.Fatal(err)
	}
	return model, ann, initial, classic
}

func runMachine(b *testing.B, model *energy.Model, ann *compiler.Annotated, initial *mem.Memory, k policy.Kind, cfg uarch.Config, shadow bool) *amnesic.Machine {
	b.Helper()
	machine, err := amnesic.New(model, ann, initial.Clone(), policy.New(k), cfg)
	if err != nil {
		b.Fatal(err)
	}
	machine.ShadowTouch = shadow
	if err := machine.Run(); err != nil {
		b.Fatal(err)
	}
	return machine
}

// BenchmarkAblationDeadStoreElim measures the extra energy gain from the
// paper's §1 store filtering on a fully swapped kernel (is).
func BenchmarkAblationDeadStoreElim(b *testing.B) {
	for _, dse := range []bool{false, true} {
		dse := dse
		b.Run(fmt.Sprintf("dse=%v", dse), func(b *testing.B) {
			opts := compiler.DefaultOptions()
			opts.EliminateDeadStores = dse
			model, ann, initial, classic := ablationSetup(b, "is", opts)
			var gain float64
			for i := 0; i < b.N; i++ {
				m := runMachine(b, model, ann, initial, policy.Compiler, uarch.DefaultConfig(), true)
				gain = 100 * (1 - m.Acct.EnergyNJ/classic.Acct.EnergyNJ)
			}
			b.ReportMetric(gain, "energy_gain_%")
			b.ReportMetric(float64(len(ann.EliminatedStores)), "stores_eliminated")
		})
	}
}

// BenchmarkAblationIBuff compares slice instruction supply from IBuff vs
// fetching every recomputing instruction from L1-I (§3.2).
func BenchmarkAblationIBuff(b *testing.B) {
	for _, entries := range []int{0, 64, 256} {
		entries := entries
		b.Run(fmt.Sprintf("entries=%d", entries), func(b *testing.B) {
			model, ann, initial, classic := ablationSetup(b, "is", compiler.DefaultOptions())
			cfg := uarch.DefaultConfig()
			cfg.IBuffEntries = entries
			var gain float64
			for i := 0; i < b.N; i++ {
				m := runMachine(b, model, ann, initial, policy.Compiler, cfg, true)
				gain = 100 * (1 - m.Acct.EDP()/classic.Acct.EDP())
			}
			b.ReportMetric(gain, "edp_gain_%")
		})
	}
}

// BenchmarkAblationHistCapacity sweeps Hist sizing against the paper's
// <=600-entry claim (§5.4): starving Hist fails RECs and disables slices.
func BenchmarkAblationHistCapacity(b *testing.B) {
	for _, entries := range []int{0, 1, 600} {
		entries := entries
		b.Run(fmt.Sprintf("entries=%d", entries), func(b *testing.B) {
			model, ann, initial, classic := ablationSetup(b, "sr", compiler.DefaultOptions())
			cfg := uarch.DefaultConfig()
			cfg.HistEntries = entries
			var gain, fired float64
			for i := 0; i < b.N; i++ {
				m := runMachine(b, model, ann, initial, policy.FLC, cfg, true)
				if m.Regs != classic.Regs {
					b.Fatal("hist starvation broke architectural equivalence")
				}
				gain = 100 * (1 - m.Acct.EDP()/classic.Acct.EDP())
				fired = float64(m.Stat.RcmpRecomputed)
			}
			b.ReportMetric(gain, "edp_gain_%")
			b.ReportMetric(fired, "recomputations")
		})
	}
}

// BenchmarkAblationSliceCap sweeps the compiler's slice-length cap (§3.4).
func BenchmarkAblationSliceCap(b *testing.B) {
	for _, cap := range []int{4, 16, 80} {
		cap := cap
		b.Run(fmt.Sprintf("maxlen=%d", cap), func(b *testing.B) {
			opts := compiler.DefaultOptions()
			opts.MaxSliceLen = cap
			model, ann, initial, classic := ablationSetup(b, "sx", opts)
			var gain float64
			for i := 0; i < b.N; i++ {
				m := runMachine(b, model, ann, initial, policy.FLC, uarch.DefaultConfig(), true)
				gain = 100 * (1 - m.Acct.EDP()/classic.Acct.EDP())
			}
			b.ReportMetric(gain, "edp_gain_%")
			b.ReportMetric(float64(len(ann.Slices)), "slices")
		})
	}
}

// BenchmarkAblationProbePenalty scales the FLC/LLC probe cost (§5.1): as
// probing approaches a full cache access, LLC collapses first.
func BenchmarkAblationProbePenalty(b *testing.B) {
	for _, mult := range []float64{1, 4, 8} {
		mult := mult
		for _, k := range []policy.Kind{policy.FLC, policy.LLC} {
			k := k
			b.Run(fmt.Sprintf("x%.0f/%s", mult, k), func(b *testing.B) {
				model := energy.Default()
				model.ProbeEnergy[energy.L1] *= mult
				model.ProbeEnergy[energy.L2] *= mult
				model.ProbeLatency[energy.L1] *= mult
				model.ProbeLatency[energy.L2] *= mult
				w, err := workloads.Get("is")
				if err != nil {
					b.Fatal(err)
				}
				prog, initial := w.Build(benchScale)
				prof, err := profile.Collect(model, prog, initial)
				if err != nil {
					b.Fatal(err)
				}
				ann, err := compiler.Compile(model, prog, prof, initial, compiler.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				classic, err := cpu.RunProgram(model, prog, initial.Clone())
				if err != nil {
					b.Fatal(err)
				}
				var gain float64
				for i := 0; i < b.N; i++ {
					m := runMachine(b, model, ann, initial, k, uarch.DefaultConfig(), true)
					gain = 100 * (1 - m.Acct.EDP()/classic.Acct.EDP())
				}
				b.ReportMetric(gain, "edp_gain_%")
			})
		}
	}
}

// BenchmarkAblationShadowTouch exposes the temporal-locality degradation of
// recomputation (§5): without the classic-trajectory cache model, recomputed
// lines never warm the hierarchy and the heuristic policies overfire.
func BenchmarkAblationShadowTouch(b *testing.B) {
	for _, shadow := range []bool{true, false} {
		shadow := shadow
		b.Run(fmt.Sprintf("shadow=%v", shadow), func(b *testing.B) {
			model, ann, initial, classic := ablationSetup(b, "sr", compiler.DefaultOptions())
			var gain, fired float64
			for i := 0; i < b.N; i++ {
				m := runMachine(b, model, ann, initial, policy.FLC, uarch.DefaultConfig(), shadow)
				gain = 100 * (1 - m.Acct.EDP()/classic.Acct.EDP())
				fired = float64(m.Stat.RcmpRecomputed)
			}
			b.ReportMetric(gain, "edp_gain_%")
			b.ReportMetric(fired, "recomputations")
		})
	}
}

// --- Harness scheduling (suite wall-clock) ---

// suiteBench measures one full responsive-suite evaluation per iteration
// under the given worker count. Compare BenchmarkSuiteSerial with
// BenchmarkSuiteParallel for the scheduler's wall-clock speedup (expected
// near-linear up to core count on multi-core machines; identical results
// either way, see TestRunSuiteParallelMatchesSerial).
func suiteBench(b *testing.B, workers int) {
	cfg := benchConfig()
	cfg.Workers = workers
	ws := workloads.Responsive()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := harness.RunSuite(cfg, ws); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
	b.ReportMetric(float64(cfg.Workers), "workers")
}

// BenchmarkSuiteSerial is the Workers=1 baseline.
func BenchmarkSuiteSerial(b *testing.B) { suiteBench(b, 1) }

// BenchmarkSuiteParallel uses the default pool (GOMAXPROCS workers).
func BenchmarkSuiteParallel(b *testing.B) { suiteBench(b, 0) }

// BenchmarkBreakEvenCached measures a Table 6 sweep whose prepare-stage
// artifacts come from a primed cache (the cmd/experiments configuration).
func BenchmarkBreakEvenCached(b *testing.B) {
	w, err := workloads.Get("is")
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchConfig()
	cfg.Cache = harness.NewArtifactCache()
	if _, err := harness.Run(cfg, w); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var be float64
	for i := 0; i < b.N; i++ {
		be, err = harness.BreakEven(cfg, w, 200)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(be, "breakeven_R_factor")
}

// BenchmarkWarmPolicyStage is the in-process twin of jobbench's warm-sweep
// workload: on an artifact cache primed before the timer starts over the
// 11 responsive kernels at scale 0.3, one op runs, for each kernel, one
// single-kernel suite and one break-even sweep up to 200, so only the
// policy stage runs. Next to ns/op it reports the process's CPU time per
// op from getrusage, which the policy runs' parallel workers add to.
func BenchmarkWarmPolicyStage(b *testing.B) {
	cfg := benchConfig()
	cfg.Cache = harness.NewArtifactCache()
	ws := workloads.Responsive()
	for _, w := range ws {
		if _, err := cfg.Cache.Get(cfg, w); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	start := cpuTime()
	for i := 0; i < b.N; i++ {
		for _, w := range ws {
			if _, err := harness.RunSuite(cfg, []*workloads.Workload{w}); err != nil {
				b.Fatal(err)
			}
			if _, err := harness.BreakEven(cfg, w, 200); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(cpuTime()-start)/1e6/float64(b.N), "cpu-ms/op")
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// BenchmarkCheckpointJobs runs the checkpoint jobs of jobbench's serve-mix
// workload in process: cg, rt, bp, bfs and sr at scale 0.1, each at the
// first of its intervals (two instructions past an eighth of the run), on
// an artifact cache warmed before the timer starts. One op is all five
// jobs; B/op is what they allocate.
func BenchmarkCheckpointJobs(b *testing.B) {
	cfg := harness.DefaultConfig()
	cfg.Scale = 0.1
	cfg.Cache = harness.NewArtifactCache()
	var ws []*workloads.Workload
	var intervals []uint64
	for _, name := range []string{"cg", "rt", "bp", "bfs", "sr"} {
		w, err := workloads.Get(name)
		if err != nil {
			b.Fatal(err)
		}
		art, err := cfg.Cache.Get(cfg, w)
		if err != nil {
			b.Fatal(err)
		}
		ws = append(ws, w)
		intervals = append(intervals, art.Classic.Acct.Instrs/8+2)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, w := range ws {
			if _, err := harness.RunCheckpoint(cfg, w, intervals[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// throughputScale keeps BenchmarkSimulatorThroughput to a few seconds, so
// CI's bench-smoke job can run it on every push.
const throughputScale = 0.05

// throughputKernel is one responsive kernel readied for timed runs: its
// program, its sealed initial image and its Compiler-mode binary.
type throughputKernel struct {
	prog *isa.Program
	img  *mem.Image
	ann  *compiler.Annotated
}

// run executes k once in mode and returns the instructions it retired.
// Only the run is on b's clock: forking the image, building the core or
// the machine, and releasing the fork are not.
func (k *throughputKernel) run(b *testing.B, model *energy.Model, mode string) (uint64, error) {
	b.StopTimer()
	if mode == "profiled" {
		// The collector copies its input memory, as in the prepare stage,
		// so that copy is part of the timed run.
		b.StartTimer()
		prof, err := profile.Collect(model, k.prog, k.img.Mem())
		b.StopTimer()
		if err != nil {
			return 0, err
		}
		return prof.TotalDynamic, nil
	}
	fm := k.img.Fork()
	defer fm.Release()
	if mode == "classic" {
		core := cpu.New(model, mem.NewDefaultHierarchy(), fm)
		b.StartTimer()
		err := core.Run(k.prog)
		b.StopTimer()
		return core.Acct.Instrs, err
	}
	machine, err := amnesic.New(model, k.ann, fm, policy.New(policy.Compiler), uarch.DefaultConfig())
	if err != nil {
		return 0, err
	}
	b.StartTimer()
	err = machine.Run()
	b.StopTimer()
	return machine.Acct.Instrs, err
}

// BenchmarkSimulatorThroughput measures the interpreter throughput every
// job pays for, over the 11 responsive kernels, in three modes: classic
// (the classic core), profiled (the fused profiler with its hot-loop
// replay, the prepare stage's first pass) and amnesic (the amnesic machine
// under the Compiler policy). Build, profile and compile run once, before
// any timing. Each sub-benchmark reports aggregate MIPS over all kernels;
// CI's bench-smoke job holds each mode to a floor.
func BenchmarkSimulatorThroughput(b *testing.B) {
	model := energy.Default()
	var kernels []*throughputKernel
	for _, w := range workloads.Responsive() {
		prog, initial := w.Build(throughputScale)
		prof, err := profile.Collect(model, prog, initial)
		if err != nil {
			b.Fatalf("%s: %v", w.Name, err)
		}
		ann, err := compiler.Compile(model, prog, prof, initial, compiler.DefaultOptions())
		if err != nil {
			b.Fatalf("%s: %v", w.Name, err)
		}
		kernels = append(kernels, &throughputKernel{prog: prog, img: initial.Seal(), ann: ann})
	}
	for _, mode := range []string{"classic", "profiled", "amnesic"} {
		b.Run(mode, func(b *testing.B) {
			var instrs uint64
			for i := 0; i < b.N; i++ {
				for _, k := range kernels {
					n, err := k.run(b, model, mode)
					if err != nil {
						b.Fatalf("%s: %v", mode, err)
					}
					instrs += n
				}
			}
			b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "MIPS")
		})
	}
}
