package harness

import (
	"context"
	"fmt"
	"io"
	"sort"

	"github.com/amnesiac-sim/amnesiac/internal/energy"
	"github.com/amnesiac-sim/amnesiac/internal/isa"
	"github.com/amnesiac-sim/amnesiac/internal/stats"
	"github.com/amnesiac-sim/amnesiac/internal/workloads"
)

// Table1 renders the paper's Table 1: communication vs computation energy
// across technology nodes (reference data from Keckler et al. [18], carried
// by the energy model).
func Table1(w io.Writer) {
	fmt.Fprintln(w, "Table 1: Communication vs. computation energy [18]")
	t := stats.NewTable("Technology Node", "Operating Voltage", "64-bit SRAM load / 64-bit FMA")
	for _, e := range energy.Table1() {
		node := e.Node
		if e.Variant != "" {
			node += " (" + e.Variant + ")"
		}
		t.Row(node, fmt.Sprintf("%.2fV", e.VoltageV), e.SRAMLoadFMA)
	}
	t.Render(w)
	fmt.Fprintf(w, "Off-chip access at 40nm exceeds %.0fx FMA energy.\n", energy.OffChipRatio40nm)
}

// Table2 renders the benchmark roster (paper Table 2).
func Table2(w io.Writer) {
	fmt.Fprintln(w, "Table 2: Benchmarks deployed")
	t := stats.NewTable("Suite", "Benchmark", "Input", "Responsive")
	for _, wl := range workloads.All() {
		t.Row(wl.Suite, wl.Name, wl.Input, wl.Responsive)
	}
	t.Render(w)
}

// Table3 renders the simulated architecture parameters (paper Table 3).
func Table3(w io.Writer, m *energy.Model) {
	fmt.Fprintln(w, "Table 3: Simulated architecture")
	t := stats.NewTable("Component", "Configuration", "Energy (nJ)", "Latency (ns)")
	t.Row("Core", fmt.Sprintf("in-order, %.2f GHz, 22nm", m.FrequencyGHz), "-", fmt.Sprintf("%.3f/cycle", m.CycleNS()))
	t.Row("L1-I (LRU)", "32KB, 4-way", m.FetchEnergy, 3.66)
	t.Row("L1-D (LRU, WB)", "32KB, 8-way", m.ReadEnergy[energy.L1], m.Latency[energy.L1])
	t.Row("L2 (LRU, WB)", "512KB, 8-way", m.ReadEnergy[energy.L2], m.Latency[energy.L2])
	t.Row("Main memory", fmt.Sprintf("read %.2f / write %.2f nJ", m.ReadEnergy[energy.Mem], m.WriteEnergy[energy.Mem]), "-", m.Latency[energy.Mem])
	t.Row("Hist", "modeled after L1-D", m.HistReadEnergy, m.HistLatency)
	t.Row("IBuff", "modeled after a small I-buffer", m.IBuffReadEnergy, m.IBuffLatency)
	t.Render(w)
	fmt.Fprintf(w, "Rdefault = EPI_nonmem/EPI_ld = %.4f\n", m.R())
}

// gainOf extracts one gain metric from a policy run.
type gainOf func(*PolicyRun) float64

func figGains(w io.Writer, title, unit string, results []*BenchResult, f gainOf) {
	fmt.Fprintln(w, title)
	header := append([]string{"Benchmark"}, PolicyLabels...)
	cells := make([]interface{}, 0, len(header))
	t := stats.NewTable(header...)
	for _, r := range results {
		cells = cells[:0]
		cells = append(cells, r.Workload.Name)
		for _, label := range PolicyLabels {
			cells = append(cells, fmt.Sprintf("%+.2f%s", f(r.Runs[label]), unit))
		}
		t.Row(cells...)
	}
	t.Render(w)
}

// Fig3 renders EDP gain per benchmark and policy (paper Fig. 3).
func Fig3(w io.Writer, results []*BenchResult) {
	figGains(w, "Fig. 3: EDP gain (%) under amnesic execution", "%", results, func(p *PolicyRun) float64 { return p.EDPGain })
}

// Fig4 renders energy gain (paper Fig. 4).
func Fig4(w io.Writer, results []*BenchResult) {
	figGains(w, "Fig. 4: Energy gain (%) under amnesic execution", "%", results, func(p *PolicyRun) float64 { return p.EnergyGain })
}

// Fig5 renders execution-time reduction (paper Fig. 5).
func Fig5(w io.Writer, results []*BenchResult) {
	figGains(w, "Fig. 5: Reduction (%) in execution time", "%", results, func(p *PolicyRun) float64 { return p.TimeGain })
}

// Table4 renders dynamic instruction mix and energy breakdown under the
// Compiler policy vs classic execution (paper Table 4).
func Table4(w io.Writer, results []*BenchResult) {
	fmt.Fprintln(w, "Table 4: Dynamic instruction mix and energy breakdown (Compiler policy)")
	t := stats.NewTable("Benchmark",
		"dIns%", "dLd%",
		"C.Load%", "C.Store%", "C.NonMem%",
		"A.Load%", "A.Store%", "A.NonMem%", "A.Hist%")
	for _, r := range results {
		run := r.Runs["Compiler"]
		cl, cs, cn, _ := r.Classic.Acct.Breakdown()
		al, as, an, ah := run.Acct.Breakdown()
		dIns := stats.Pct(float64(run.Acct.Instrs), float64(r.Classic.Acct.Instrs)) - 100
		dLd := 100 - stats.Pct(float64(run.Acct.Loads), float64(r.Classic.Acct.Loads))
		t.Row(r.Workload.Name,
			fmt.Sprintf("%+.2f", dIns), fmt.Sprintf("%-.2f", dLd),
			cl, cs, cn, al, as, an,
			fmt.Sprintf("%.2e", ah))
	}
	t.Render(w)
}

// Table5 renders the memory-access profile of swapped loads per policy
// (paper Table 5): where the swapped dynamic load instances would have been
// serviced under classic execution.
func Table5(w io.Writer, results []*BenchResult) {
	fmt.Fprintln(w, "Table 5: Memory access profile of loads swapped for recomputation")
	t := stats.NewTable("Benchmark", "Policy", "L1-hit %", "L2-hit %", "Memory-hit %", "Swapped loads")
	for _, r := range results {
		for _, label := range []string{"Compiler", "FLC", "LLC"} {
			run := r.Runs[label]
			t.Row(r.Workload.Name, label,
				run.Swapped[energy.L1], run.Swapped[energy.L2], run.Swapped[energy.Mem],
				run.SwappedCount)
		}
	}
	t.Render(w)
}

// Fig6 renders histograms of instruction count per recomputed RSlice under
// the Compiler policy (paper Fig. 6), plus the aggregate shares the paper
// quotes (≈78% below 10 instructions, ≈0.1% above 50).
func Fig6(w io.Writer, results []*BenchResult) {
	fmt.Fprintln(w, "Fig. 6: Instruction count per recomputed RSlice (Compiler policy)")
	agg := stats.NewHistogram(5, 80)
	for _, r := range results {
		h := stats.NewHistogram(5, 80)
		run := r.Runs["Compiler"]
		for _, si := range r.Ann.Slices {
			weight := run.Stat.SliceRecomputes[si.ID]
			if weight == 0 {
				continue
			}
			h.Add(float64(si.Slice.Len()), 1) // % of RSlices, as in the paper
			agg.Add(float64(si.Slice.Len()), 1)
		}
		h.Render(w, fmt.Sprintf("(%s)", r.Workload.Name))
	}
	fmt.Fprintf(w, "Aggregate: %.2f%% of RSlices shorter than 10 instructions; %.2f%% of 50+ instructions.\n",
		agg.ShareBelow(10), agg.ShareAbove(50))
}

// Fig7 renders the share of RSlices with non-recomputable leaf inputs
// (paper Fig. 7) plus the Hist sizing analysis of §5.4.
func Fig7(w io.Writer, results []*BenchResult) {
	fmt.Fprintln(w, "Fig. 7: % of RSlices with non-recomputable (nc) leaf inputs")
	t := stats.NewTable("Benchmark", "w/ nc %", "w/o nc %", "Hist entries", "Hist high-water")
	for _, r := range results {
		nc := 0
		for _, si := range r.Ann.Slices {
			if si.Slice.HasNonRecomputable() {
				nc++
			}
		}
		total := len(r.Ann.Slices)
		ncPct := stats.Pct(float64(nc), float64(total))
		t.Row(r.Workload.Name, ncPct, 100-ncPct, r.Ann.Stats.HistEntriesTotal, r.Runs["Compiler"].Stat.HistMaxUsed)
	}
	t.Render(w)
}

// Fig8 renders value-locality histograms for swapped loads under the
// Compiler policy (paper Fig. 8).
func Fig8(w io.Writer, results []*BenchResult) {
	fmt.Fprintln(w, "Fig. 8: Last-value locality of loads swapped by the Compiler policy")
	t := stats.NewTable("Benchmark", "Load PC", "Dynamic count", "Value locality %")
	for _, r := range results {
		pcs := make([]int, 0, len(r.Ann.Slices))
		for _, si := range r.Ann.Slices {
			pcs = append(pcs, si.LoadPC)
		}
		sort.Ints(pcs)
		for _, pc := range pcs {
			li := r.Profile.Loads[pc]
			t.Row(r.Workload.Name, fmt.Sprintf("@%d", pc), li.Count, 100*li.ValueLocality())
		}
	}
	t.Render(w)
}

// Table6 renders the break-even analysis (paper Table 6): the normalized R
// at which amnesic execution under C-Oracle stops paying off. The
// per-benchmark sweeps are independent, so they fan out over the worker
// pool; rows render in workload order regardless of completion order.
func Table6(w io.Writer, cfg Config, ws []*workloads.Workload, maxFactor float64) error {
	return Table6Context(context.Background(), w, cfg, ws, maxFactor)
}

// Table6Context is Table6 with cancellation, at per-sweep granularity (see
// BreakEvenContext).
func Table6Context(ctx context.Context, w io.Writer, cfg Config, ws []*workloads.Workload, maxFactor float64) error {
	factors, err := BreakEvenSuiteContext(ctx, cfg, ws, maxFactor)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "Table 6: Break-even point for C-Oracle (R normalized to Rdefault)")
	t := stats.NewTable("Benchmark", "R_breakeven (normalized)")
	for i, wl := range ws {
		label := fmt.Sprintf("%.2f", factors[i])
		if factors[i] >= maxFactor {
			label = fmt.Sprintf(">= %.0f", maxFactor)
		}
		t.Row(wl.Name, label)
	}
	t.Render(w)
	return nil
}

// Summary prints the paper's §7 headline: gains over the responsive set.
func Summary(w io.Writer, results []*BenchResult) {
	var maxG, sumG float64
	n := 0
	for _, r := range results {
		best := r.Runs["Compiler"].EDPGain
		if g := r.Runs["FLC"].EDPGain; g > best {
			best = g
		}
		if best > maxG {
			maxG = best
		}
		sumG += best
		n++
	}
	if n == 0 {
		return
	}
	fmt.Fprintf(w, "Summary: amnesic execution reduces EDP by up to %.1f%%, %.1f%% on average, across %d responsive benchmarks.\n",
		maxG, sumG/float64(n), n)
}

// InstrMixCheck verifies the emitted binaries only add amnesic opcodes
// (debug aid used by tests and cmd/experiments -check).
func InstrMixCheck(r *BenchResult) error {
	for pc, in := range r.Ann.Prog.Code {
		if !in.Op.Valid() {
			return fmt.Errorf("%s: invalid opcode at %d", r.Program, pc)
		}
	}
	if len(r.Ann.Slices) > 0 {
		found := false
		for _, in := range r.Ann.Prog.Code {
			if in.Op == isa.RCMP {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("%s: slices compiled but no RCMP emitted", r.Program)
		}
	}
	return nil
}
