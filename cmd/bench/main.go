// Command bench measures raw interpreter throughput — nanoseconds per
// retired instruction and MIPS — for the three execution modes every
// experiment in the repro pays for:
//
//   - classic:  the classic core (cpu.Core.Run);
//   - profiled: the fused profiling interpreter with its hot-loop replay
//     (profile.Collect, the prepare stage of every harness run; -notrace
//     does not reach it);
//   - amnesic:  the amnesic machine under the Compiler policy.
//
// Results are written as JSON (default BENCH_interp.json), establishing a
// tracked perf trajectory for the simulator itself, independent of the
// paper-metric benchmarks in bench_test.go.
//
// Usage:
//
//	bench                              # responsive suite, scale 0.3
//	bench -scale 0.1 -runs 5
//	bench -bench is,mcf -out /tmp/b.json
//	bench -notrace                     # both cores without the trace engine
//	bench -validate BENCH_interp.json  # sanity-check an existing report
//	bench -floor profiled=25           # exit 1 if aggregate MIPS dips below
//	bench -compare old.json new.json   # per-workload deltas; exit 1 on
//	                                   # regression beyond -regress (10%)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/amnesiac-sim/amnesiac/internal/amnesic"
	"github.com/amnesiac-sim/amnesiac/internal/compiler"
	"github.com/amnesiac-sim/amnesiac/internal/cpu"
	"github.com/amnesiac-sim/amnesiac/internal/energy"
	"github.com/amnesiac-sim/amnesiac/internal/harness"
	"github.com/amnesiac-sim/amnesiac/internal/mem"
	"github.com/amnesiac-sim/amnesiac/internal/policy"
	"github.com/amnesiac-sim/amnesiac/internal/pprofutil"
	"github.com/amnesiac-sim/amnesiac/internal/profile"
	"github.com/amnesiac-sim/amnesiac/internal/trace"
	"github.com/amnesiac-sim/amnesiac/internal/uarch"
	"github.com/amnesiac-sim/amnesiac/internal/workloads"
)

// Modes in report order.
var modes = []string{"classic", "profiled", "amnesic"}

// ModeResult is one (workload, mode) throughput measurement. The headline
// wall time and MIPS are the best of -runs repetitions, so transient
// scheduling noise does not understate throughput; MinMIPS and MedianMIPS
// record the worst and median run so a report also shows how noisy the host
// was. Floor values for CI should be derived from the min numbers (plus
// headroom), which is what keeps -floor gating from flapping on shared
// hosts.
type ModeResult struct {
	Instrs     uint64  `json:"instrs"`
	WallNS     int64   `json:"wall_ns"`
	NsPerInstr float64 `json:"ns_per_instr"`
	MIPS       float64 `json:"mips"`
	MinMIPS    float64 `json:"mips_min,omitempty"`
	MedianMIPS float64 `json:"mips_median,omitempty"`
}

// WorkloadResult groups the three modes for one benchmark.
type WorkloadResult struct {
	Name  string                `json:"name"`
	Modes map[string]ModeResult `json:"modes"`
}

// FanoutResult is the -fanout section: many small jobs served from shared
// sealed images through warm lanes (the daemon's serving shape), plus the
// fork-vs-clone snapshot cost that makes it cheap. Allocation figures are
// per snapshot operation, averaged over the measured workloads.
type FanoutResult struct {
	Rounds           int     `json:"rounds"`
	Lanes            int     `json:"lanes"`
	Workloads        int     `json:"workloads"`
	Jobs             int     `json:"jobs"`
	WallNS           int64   `json:"wall_ns"`
	JobsPerSec       float64 `json:"jobs_per_sec"`
	CloneAllocsPerOp float64 `json:"clone_allocs_per_op"`
	CloneBytesPerOp  float64 `json:"clone_bytes_per_op"`
	ForkAllocsPerOp  float64 `json:"fork_allocs_per_op"`
	ForkBytesPerOp   float64 `json:"fork_bytes_per_op"`
	// Clone cost over fork cost; the COW fan-out design demands >= 10x on
	// both axes, and bench exits 1 when a run measures less.
	AllocRatio float64 `json:"clone_to_fork_alloc_ratio"`
	ByteRatio  float64 `json:"clone_to_fork_byte_ratio"`
}

// Report is the BENCH_interp.json schema.
type Report struct {
	Scale     float64               `json:"scale"`
	MaxInstrs uint64                `json:"max_instrs"`
	Runs      int                   `json:"runs"`
	GoVersion string                `json:"go_version"`
	GOOS      string                `json:"goos"`
	GOARCH    string                `json:"goarch"`
	Workloads []WorkloadResult      `json:"workloads"`
	Totals    map[string]ModeResult `json:"totals"`
	Fanout    *FanoutResult         `json:"fanout,omitempty"`
}

func mips(instrs uint64, wall time.Duration) float64 {
	if instrs == 0 || wall <= 0 {
		return 0
	}
	return float64(instrs) / wall.Seconds() / 1e6
}

func finish(instrs uint64, best, worst, median time.Duration) ModeResult {
	r := ModeResult{Instrs: instrs, WallNS: best.Nanoseconds()}
	if instrs > 0 && best > 0 {
		r.NsPerInstr = float64(best.Nanoseconds()) / float64(instrs)
		r.MIPS = mips(instrs, best)
		r.MinMIPS = mips(instrs, worst)
		r.MedianMIPS = mips(instrs, median)
	}
	return r
}

// bestOf runs f repeatedly and reports throughput over the best run, with
// the worst and median runs recorded alongside. f times its own hot section,
// so per-run setup (memory clones, machine construction) stays off the
// clock.
func bestOf(runs int, f func() (uint64, time.Duration, error)) (ModeResult, error) {
	walls := make([]time.Duration, 0, runs)
	var instrs uint64
	for i := 0; i < runs; i++ {
		n, wall, err := f()
		if err != nil {
			return ModeResult{}, err
		}
		walls = append(walls, wall)
		instrs = n
	}
	sort.Slice(walls, func(i, j int) bool { return walls[i] < walls[j] })
	return finish(instrs, walls[0], walls[len(walls)-1], walls[len(walls)/2]), nil
}

func measure(w *workloads.Workload, scale float64, maxInstrs uint64, runs int, want map[string]bool, noTrace bool) (*WorkloadResult, error) {
	model := energy.Default()
	prog, initial := w.Build(scale)

	out := &WorkloadResult{Name: w.Name, Modes: make(map[string]ModeResult, len(modes))}

	// classic: cpu.Core.Run. Memory clones happen outside the timer;
	// they are workload setup, not interpreter work.
	if want["classic"] {
		classic, err := bestOf(runs, func() (uint64, time.Duration, error) {
			m := initial.Clone()
			h := mem.NewDefaultHierarchy()
			core := cpu.New(model, h, m)
			core.MaxInstrs = maxInstrs
			if noTrace {
				core.Trace = trace.Config{}
			}
			start := time.Now()
			err := core.Run(prog)
			return core.Acct.Instrs, time.Since(start), err
		})
		if err != nil {
			return nil, fmt.Errorf("%s/classic: %w", w.Name, err)
		}
		out.Modes["classic"] = classic
	}

	// profiled: the fused profiler (the harness prepare stage).
	if want["profiled"] {
		profiled, err := bestOf(runs, func() (uint64, time.Duration, error) {
			start := time.Now()
			prof, err := profile.Collect(model, prog, initial)
			if err != nil {
				return 0, 0, err
			}
			return prof.TotalDynamic, time.Since(start), nil
		})
		if err != nil {
			return nil, fmt.Errorf("%s/profiled: %w", w.Name, err)
		}
		out.Modes["profiled"] = profiled
	}

	// amnesic: compile once (outside the timer), then time machine runs.
	if want["amnesic"] {
		prof, err := profile.Collect(model, prog, initial)
		if err != nil {
			return nil, fmt.Errorf("%s/compile: %w", w.Name, err)
		}
		ann, err := compiler.Compile(model, prog, prof, initial, compiler.DefaultOptions())
		if err != nil {
			return nil, fmt.Errorf("%s/compile: %w", w.Name, err)
		}
		amn, err := bestOf(runs, func() (uint64, time.Duration, error) {
			machine, err := amnesic.New(model, ann, initial.Clone(), policy.New(policy.Compiler), uarch.DefaultConfig())
			if err != nil {
				return 0, 0, err
			}
			machine.MaxInstrs = maxInstrs
			if noTrace {
				machine.Trace = trace.Config{}
			}
			start := time.Now()
			if err := machine.Run(); err != nil {
				return 0, 0, err
			}
			return machine.Acct.Instrs, time.Since(start), nil
		})
		if err != nil {
			return nil, fmt.Errorf("%s/amnesic: %w", w.Name, err)
		}
		out.Modes["amnesic"] = amn
	}
	return out, nil
}

// allocStats measures per-operation heap allocations and bytes for f. The
// results are kept live until the second memstats read, so escape analysis
// cannot stack-allocate the snapshot being measured.
func allocStats(n int, f func() *mem.Memory) (allocs, bytes float64) {
	keep := make([]*mem.Memory, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		keep[i] = f()
	}
	runtime.ReadMemStats(&after)
	for i := range keep {
		keep[i] = nil
	}
	return float64(after.Mallocs-before.Mallocs) / float64(n),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// measureFanout runs rounds copies of the (workload × policy) grid through
// the harness's lane-batched fan-out runner — every job forked from its
// workload's shared sealed image — and measures the fork-vs-clone snapshot
// cost over the same initial images.
func measureFanout(ws []*workloads.Workload, scale float64, maxInstrs uint64, rounds, lanes int) (*FanoutResult, error) {
	cfg := harness.DefaultConfig()
	cfg.Scale = scale
	cfg.MaxInstrs = maxInstrs
	cfg.Workers = lanes
	cfg.Cache = harness.NewArtifactCache()
	st, err := harness.RunFanOut(context.Background(), cfg, ws, rounds)
	if err != nil {
		return nil, err
	}
	out := &FanoutResult{
		Rounds:     rounds,
		Lanes:      st.Lanes,
		Workloads:  st.Prepared,
		Jobs:       st.Jobs,
		WallNS:     st.Elapsed.Nanoseconds(),
		JobsPerSec: st.JobsPerSec,
	}
	const ops = 16
	for _, w := range ws {
		_, initial := w.Build(scale)
		img := initial.Seal()
		ca, cb := allocStats(ops, func() *mem.Memory { return img.Mem().Clone() })
		fa, fb := allocStats(ops, img.Fork)
		out.CloneAllocsPerOp += ca / float64(len(ws))
		out.CloneBytesPerOp += cb / float64(len(ws))
		out.ForkAllocsPerOp += fa / float64(len(ws))
		out.ForkBytesPerOp += fb / float64(len(ws))
	}
	if out.ForkAllocsPerOp > 0 {
		out.AllocRatio = out.CloneAllocsPerOp / out.ForkAllocsPerOp
	}
	if out.ForkBytesPerOp > 0 {
		out.ByteRatio = out.CloneBytesPerOp / out.ForkBytesPerOp
	}
	return out, nil
}

// validate checks an existing report for structural sanity; CI uses it to
// assert the bench-smoke artifact is well formed.
func validate(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Workloads) == 0 {
		return fmt.Errorf("%s: no workloads", path)
	}
	// A report may cover a subset of modes (e.g. -modes "" -fanout records
	// only the fan-out section). Validate the modes that were measured and
	// require that every workload has all of them; a report with neither
	// mode measurements nor a fanout section is empty.
	measured := make(map[string]bool)
	for _, wr := range rep.Workloads {
		for m := range wr.Modes {
			measured[m] = true
		}
	}
	if len(measured) == 0 && rep.Fanout == nil {
		return fmt.Errorf("%s: no measurements (no modes, no fanout section)", path)
	}
	for _, wr := range rep.Workloads {
		for _, mode := range modes {
			if !measured[mode] {
				continue
			}
			mr, ok := wr.Modes[mode]
			if !ok {
				return fmt.Errorf("%s: %s missing mode %q", path, wr.Name, mode)
			}
			if mr.Instrs == 0 || mr.WallNS <= 0 || mr.MIPS <= 0 {
				return fmt.Errorf("%s: %s/%s has degenerate measurement %+v", path, wr.Name, mode, mr)
			}
			if mr.MinMIPS > mr.MIPS+1e-9 || (mr.MedianMIPS > 0 && mr.MedianMIPS > mr.MIPS+1e-9) {
				return fmt.Errorf("%s: %s/%s min/median exceed best-of MIPS %+v", path, wr.Name, mode, mr)
			}
		}
	}
	for _, mode := range modes {
		if measured[mode] && rep.Totals[mode].Instrs == 0 {
			return fmt.Errorf("%s: totals missing mode %q", path, mode)
		}
	}
	if f := rep.Fanout; f != nil {
		if f.Jobs == 0 || f.WallNS <= 0 || f.JobsPerSec <= 0 {
			return fmt.Errorf("%s: fanout has degenerate measurement %+v", path, f)
		}
		if f.ForkAllocsPerOp <= 0 || f.CloneAllocsPerOp <= 0 || f.AllocRatio < 1 || f.ByteRatio < 1 {
			return fmt.Errorf("%s: fanout snapshot-cost figures are degenerate %+v", path, f)
		}
	}
	return nil
}

func main() {
	var (
		scale      = flag.Float64("scale", 0.3, "workload scale factor")
		suite      = flag.String("suite", "responsive", "responsive or all")
		bench      = flag.String("bench", "", "comma-separated workload names (overrides -suite)")
		runs       = flag.Int("runs", 3, "repetitions per measurement (best-of)")
		maxInstr   = flag.Int64("maxinstrs", 0, "per-run dynamic instruction budget (0 = default)")
		out        = flag.String("out", "BENCH_interp.json", "output JSON path (- for stdout)")
		checkPath  = flag.String("validate", "", "validate an existing report file and exit")
		modeFlag   = flag.String("modes", "classic,profiled,amnesic", "comma-separated modes to measure")
		floorFlag  = flag.String("floor", "", "mode=MIPS[,mode=MIPS] aggregate throughput floors; exit 1 if unmet")
		compareRun = flag.Bool("compare", false, "compare two report files (bench -compare old.json new.json) and exit")
		regress    = flag.Float64("regress", 0.10, "with -compare, max tolerated fractional MIPS regression per (workload, mode)")
		noTrace    = flag.Bool("notrace", false, "disable the trace engine on both cores (measure the pure interpreters)")
		fanout     = flag.Int("fanout", 0, "rounds of the (workload x policy) grid to serve through the warm fan-out runner (0 = off)")
		fanLanes   = flag.Int("fanoutlanes", 0, "fan-out worker lanes (0 = GOMAXPROCS)")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	)
	flag.Parse()

	if *compareRun {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare wants exactly two report paths (old.json new.json)")
			os.Exit(2)
		}
		if err := compareReports(flag.Arg(0), flag.Arg(1), *regress); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}

	stopProf, err := pprofutil.StartCPU(*cpuProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	defer stopProf()
	defer func() {
		if err := pprofutil.WriteHeap(*memProfile); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
	}()

	if *checkPath != "" {
		if err := validate(*checkPath); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Printf("bench: %s is a valid interpreter-throughput report\n", *checkPath)
		return
	}
	if err := validateFlags(*scale, *runs, *maxInstr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	want := make(map[string]bool)
	for _, m := range strings.Split(*modeFlag, ",") {
		m = strings.TrimSpace(m)
		switch m {
		case "classic", "profiled", "amnesic":
			want[m] = true
		case "": // -modes "" measures nothing but -fanout
		default:
			fmt.Fprintf(os.Stderr, "bench: unknown mode %q\n", m)
			os.Exit(2)
		}
	}
	if *fanout > 0 {
		want["fanout"] = true
	}
	floors, err := parseFloors(*floorFlag, want)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}

	var ws []*workloads.Workload
	if *bench != "" {
		for _, name := range strings.Split(*bench, ",") {
			w, err := workloads.Get(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			ws = append(ws, w)
		}
	} else if *suite == "all" {
		ws = workloads.All()
	} else {
		ws = workloads.Responsive()
	}

	rep := Report{
		Scale:     *scale,
		MaxInstrs: uint64(*maxInstr),
		Runs:      *runs,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Totals:    make(map[string]ModeResult, len(modes)),
	}
	totalInstrs := make(map[string]uint64, len(modes))
	totalWall := make(map[string]int64, len(modes))
	totalWorst := make(map[string]float64, len(modes))
	totalMedian := make(map[string]float64, len(modes))
	for _, w := range ws {
		fmt.Fprintf(os.Stderr, "bench: %s (scale %.2f)...\n", w.Name, *scale)
		wr, err := measure(w, *scale, uint64(*maxInstr), *runs, want, *noTrace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		rep.Workloads = append(rep.Workloads, *wr)
		for mode, mr := range wr.Modes {
			totalInstrs[mode] += mr.Instrs
			totalWall[mode] += mr.WallNS
			// Recover the worst/median wall times (instrs/MIPS is µs) so
			// the aggregate min/median reflect a suite-wide run at that
			// percentile.
			if mr.MinMIPS > 0 {
				totalWorst[mode] += float64(mr.Instrs) / mr.MinMIPS * 1e3
			}
			if mr.MedianMIPS > 0 {
				totalMedian[mode] += float64(mr.Instrs) / mr.MedianMIPS * 1e3
			}
		}
	}
	for _, mode := range modes {
		if want[mode] {
			rep.Totals[mode] = finish(totalInstrs[mode], time.Duration(totalWall[mode]),
				time.Duration(totalWorst[mode]), time.Duration(totalMedian[mode]))
		}
	}
	if *fanout > 0 {
		fmt.Fprintf(os.Stderr, "bench: fan-out, %d rounds over %d workloads...\n", *fanout, len(ws))
		fr, err := measureFanout(ws, *scale, uint64(*maxInstr), *fanout, *fanLanes)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		rep.Fanout = fr
	}

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
	} else {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	t := rep.Totals
	fmt.Fprintf(os.Stderr, "bench: classic %.1f MIPS, profiled %.1f MIPS, amnesic %.1f MIPS over %d workloads\n",
		t["classic"].MIPS, t["profiled"].MIPS, t["amnesic"].MIPS, len(rep.Workloads))

	failed := false
	for _, mode := range modes {
		floor, ok := floors[mode]
		if !ok {
			continue
		}
		if got := t[mode].MIPS; got < floor {
			fmt.Fprintf(os.Stderr, "bench: FAIL: %s aggregate %.1f MIPS below floor %.1f MIPS\n", mode, got, floor)
			failed = true
		} else {
			fmt.Fprintf(os.Stderr, "bench: %s aggregate %.1f MIPS meets floor %.1f MIPS\n", mode, got, floor)
		}
	}
	if f := rep.Fanout; f != nil {
		fmt.Fprintf(os.Stderr, "bench: fan-out %.1f jobs/s (%d jobs, %d lanes); snapshot clone/fork: %.0fx allocs, %.0fx bytes\n",
			f.JobsPerSec, f.Jobs, f.Lanes, f.AllocRatio, f.ByteRatio)
		// The COW design contract on real workload images: forking must move
		// at least an order of magnitude fewer bytes than cloning, and never
		// more allocations. (The >=10x bound on allocation *count* is gated
		// in internal/mem's TestForkTenTimesCheaperThanClone over a fixture
		// with enough regions and pages for the count to be meaningful; a
		// real image cloned as one arena slab is only a few allocations
		// total, so a count ratio here would gate on noise.)
		if f.ByteRatio < 10 || f.ForkAllocsPerOp > f.CloneAllocsPerOp {
			fmt.Fprintf(os.Stderr, "bench: FAIL: fork snapshots are not cheap (allocs %.1fx, bytes %.1fx)\n",
				f.AllocRatio, f.ByteRatio)
			failed = true
		}
		if floor, ok := floors["fanout"]; ok {
			if f.JobsPerSec < floor {
				fmt.Fprintf(os.Stderr, "bench: FAIL: fan-out %.1f jobs/s below floor %.1f\n", f.JobsPerSec, floor)
				failed = true
			} else {
				fmt.Fprintf(os.Stderr, "bench: fan-out %.1f jobs/s meets floor %.1f\n", f.JobsPerSec, floor)
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}

// compareReports prints per-(workload, mode) MIPS deltas between two report
// files and fails if any measured pair regressed by more than the tolerated
// fraction. Workloads or modes present in only one report are noted but not
// gated, so a suite change does not mask a throughput change.
func compareReports(oldPath, newPath string, tolerate float64) error {
	load := func(path string) (*Report, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rep Report
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &rep, nil
	}
	oldRep, err := load(oldPath)
	if err != nil {
		return err
	}
	newRep, err := load(newPath)
	if err != nil {
		return err
	}
	return compareLoaded(os.Stdout, oldRep, newRep, oldPath, newPath, tolerate)
}

// compareLoaded is compareReports on decoded reports, writing to w so tests
// can assert on the rendered comparison. Every (workload, mode) pair present
// in either report produces a line: measured pairs get a delta and the
// regression gate, one-sided pairs are called out with which file has them —
// a mode silently missing from the new report is a dropped measurement, not
// a pass.
func compareLoaded(w io.Writer, oldRep, newRep *Report, oldPath, newPath string, tolerate float64) error {
	oldBy := make(map[string]map[string]ModeResult, len(oldRep.Workloads))
	for _, wr := range oldRep.Workloads {
		oldBy[wr.Name] = wr.Modes
	}
	var regressed []string
	for _, wr := range newRep.Workloads {
		oldModes, ok := oldBy[wr.Name]
		if !ok {
			fmt.Fprintf(w, "%-6s only in %s\n", wr.Name, newPath)
			continue
		}
		delete(oldBy, wr.Name)
		for _, mode := range modes {
			nm, newOK := wr.Modes[mode]
			om, oldOK := oldModes[mode]
			switch {
			case !newOK && !oldOK:
				continue
			case !newOK:
				fmt.Fprintf(w, "%-6s %-8s %8.1f MIPS (only in %s)\n", wr.Name, mode, om.MIPS, oldPath)
				continue
			case !oldOK || om.MIPS <= 0:
				fmt.Fprintf(w, "%-6s %-8s %8.1f MIPS (no old measurement)\n", wr.Name, mode, nm.MIPS)
				continue
			}
			ratio := nm.MIPS / om.MIPS
			verdict := ""
			if ratio < 1-tolerate {
				verdict = "  REGRESSED"
				regressed = append(regressed, fmt.Sprintf("%s/%s %.1f%%", wr.Name, mode, (ratio-1)*100))
			}
			fmt.Fprintf(w, "%-6s %-8s %8.1f -> %8.1f MIPS  %+6.1f%%%s\n",
				wr.Name, mode, om.MIPS, nm.MIPS, (ratio-1)*100, verdict)
		}
	}
	// Workloads only in the old report, in its order (not map order).
	for _, wr := range oldRep.Workloads {
		if _, ok := oldBy[wr.Name]; ok {
			fmt.Fprintf(w, "%-6s only in %s\n", wr.Name, oldPath)
		}
	}
	for _, mode := range modes {
		om, nm := oldRep.Totals[mode], newRep.Totals[mode]
		if om.MIPS > 0 && nm.MIPS > 0 {
			fmt.Fprintf(w, "%-6s %-8s %8.1f -> %8.1f MIPS  %+6.1f%%\n",
				"TOTAL", mode, om.MIPS, nm.MIPS, (nm.MIPS/om.MIPS-1)*100)
		}
	}
	if len(regressed) > 0 {
		return fmt.Errorf("regression beyond %.0f%%: %s", tolerate*100, strings.Join(regressed, ", "))
	}
	return nil
}

// parseFloors parses the -floor spec ("profiled=25,classic=100") into a
// mode→MIPS map, rejecting unknown modes and modes not being measured.
func parseFloors(spec string, want map[string]bool) (map[string]float64, error) {
	floors := make(map[string]float64)
	if spec == "" {
		return floors, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		mode, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("invalid -floor entry %q (want mode=MIPS)", part)
		}
		mode = strings.TrimSpace(mode)
		switch mode {
		case "classic", "profiled", "amnesic", "fanout":
		default:
			return nil, fmt.Errorf("invalid -floor mode %q", mode)
		}
		if !want[mode] {
			return nil, fmt.Errorf("-floor mode %q is not being measured (see -modes / -fanout)", mode)
		}
		// The fanout floor is jobs/sec rather than MIPS, but the syntax and
		// positivity rule are shared.
		mips, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil || mips <= 0 {
			return nil, fmt.Errorf("invalid -floor value %q for mode %s", val, mode)
		}
		floors[mode] = mips
	}
	return floors, nil
}
