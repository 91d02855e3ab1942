// Command amnesiac runs one benchmark of the suite under classic and
// amnesic execution and reports energy, time, EDP, and the amnesic
// runtime statistics.
//
// Usage:
//
//	amnesiac -bench is -scale 0.5
//	amnesiac -bench mcf -policies Compiler,FLC
//	amnesiac -bench is -serve-addr http://127.0.0.1:8080   # run on amnesiacd
//	amnesiac -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/amnesiac-sim/amnesiac/internal/harness"
	"github.com/amnesiac-sim/amnesiac/internal/pprofutil"
	"github.com/amnesiac-sim/amnesiac/internal/stats"
	"github.com/amnesiac-sim/amnesiac/internal/workloads"
)

func main() {
	var (
		bench      = flag.String("bench", "", "benchmark name (see -list)")
		scale      = flag.Float64("scale", 1.0, "workload scale factor")
		list       = flag.Bool("list", false, "list available benchmarks")
		policies   = flag.String("policies", strings.Join(harness.PolicyLabels, ","), "comma-separated policies to report")
		verbose    = flag.Bool("v", false, "print compiled slice details")
		workers    = flag.Int("workers", 0, "concurrent simulation jobs (0 = GOMAXPROCS, 1 = serial)")
		maxInstr   = flag.Int64("maxinstrs", 0, "per-simulation dynamic instruction budget (0 = default)")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
		serveAddr  = flag.String("serve-addr", "", "amnesiacd base URL; run the benchmark as a service job instead of in-process")
		jobTimeout = flag.Duration("job-timeout", 0, "deadline for the remote job (with -serve-addr; 0 = none)")
		ckptTable  = flag.Bool("ckpt", false, "also run the checkpoint/restart experiment and print its table")
		ckptIv     = flag.Uint64("ckpt-interval", 0, "checkpoint period in dynamic instructions (with -ckpt; 0 = ~1/8 of the run)")
	)
	flag.Parse()

	if err := validateFlags(*scale, *workers, *maxInstr, *ckptTable, *ckptIv); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	stopProf, err := pprofutil.StartCPU(*cpuProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "amnesiac:", err)
		os.Exit(1)
	}
	defer stopProf()
	defer func() {
		if err := pprofutil.WriteHeap(*memProfile); err != nil {
			fmt.Fprintln(os.Stderr, "amnesiac:", err)
		}
	}()

	if *list {
		t := stats.NewTable("Name", "Suite", "Input", "Responsive", "Description")
		for _, w := range workloads.All() {
			t.Row(w.Name, w.Suite, w.Input, w.Responsive, w.Description)
		}
		t.Render(os.Stdout)
		return
	}
	if *bench == "" {
		fmt.Fprintln(os.Stderr, "amnesiac: -bench is required (or -list)")
		flag.Usage()
		os.Exit(2)
	}
	w, err := workloads.Get(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	pols := policyList(*policies)
	if *serveAddr != "" {
		if err := runRemote(*serveAddr, w.Name, *scale, uint64(*maxInstr), pols, *jobTimeout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	cfg := harness.DefaultConfig()
	cfg.Scale = *scale
	cfg.Workers = *workers
	cfg.MaxInstrs = uint64(*maxInstr)
	// One cache so the checkpoint experiment reuses the suite's artifacts.
	cfg.Cache = harness.NewArtifactCache()
	if err := runLocal(os.Stdout, cfg, w, pols, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *ckptTable {
		fmt.Println()
		if err := harness.CheckpointTable(os.Stdout, cfg, []*workloads.Workload{w}, *ckptIv); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// runLocal evaluates w in process under cfg, simulating only the given
// policies, so an unknown label fails before any prepare work. It prints
// the classic baseline and one table row per policy, in the given order.
func runLocal(out io.Writer, cfg harness.Config, w *workloads.Workload, policies []string, verbose bool) error {
	cfg.Policies = policies
	res, err := harness.Run(cfg, w)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "benchmark %s (%s, input %s), scale %.2f\n", w.Name, w.Suite, w.Input, cfg.Scale)
	fmt.Fprintf(out, "classic: %.0f nJ, %.0f ns, EDP %.3e nJ*ns, %d instrs (%d loads, %d stores)\n",
		res.Classic.Acct.EnergyNJ, res.Classic.Acct.TimeNS, res.Classic.Acct.EDP(),
		res.Classic.Acct.Instrs, res.Classic.Acct.Loads, res.Classic.Acct.Stores)
	fmt.Fprintf(out, "compiled slices: %d selected (of %d loads seen); stats %+v\n",
		len(res.Ann.Slices), res.Ann.Stats.LoadsSeen, res.Ann.Stats)
	if verbose {
		for _, si := range res.Ann.Slices {
			fmt.Fprintf(out, "  slice %d: load @%d, len %d, Eld %.2f nJ, Erc %.2f nJ, hist entries %d\n",
				si.ID, si.LoadPC, si.Slice.Len(), si.ExpectedEld, si.ExpectedErc, si.HistEntries)
			fmt.Fprint(out, si.Slice.String())
		}
	}

	t := stats.NewTable("Policy", "Energy (nJ)", "Time (ns)", "EDP gain", "Energy gain", "Time gain", "RCMP fired/total", "Verified")
	for _, label := range policies {
		run := res.Runs[label]
		t.Row(run.Label,
			fmt.Sprintf("%.0f", run.Acct.EnergyNJ), fmt.Sprintf("%.0f", run.Acct.TimeNS),
			fmt.Sprintf("%+.2f%%", run.EDPGain), fmt.Sprintf("%+.2f%%", run.EnergyGain), fmt.Sprintf("%+.2f%%", run.TimeGain),
			fmt.Sprintf("%d/%d", run.Stat.RcmpRecomputed, run.Stat.RcmpTotal), run.Verified)
	}
	t.Render(out)
	return nil
}
