package exec_test

import (
	"math"
	"testing"

	"github.com/amnesiac-sim/amnesiac/internal/compiler"
	"github.com/amnesiac-sim/amnesiac/internal/cpu"
	"github.com/amnesiac-sim/amnesiac/internal/energy"
	"github.com/amnesiac-sim/amnesiac/internal/mem"
	"github.com/amnesiac-sim/amnesiac/internal/profile"
	"github.com/amnesiac-sim/amnesiac/internal/workloads"
)

// TestTraceCoverage reports, per responsive workload, how much of the
// dynamic instruction stream executes under trace replay. Run with -v for
// the table. It guards against the engine silently dying (zero replays
// across the whole suite), and against watched loops falling back to
// interpretation: under the workload's real validation watch the replayed
// share must stay within 0.01 of the unwatched run's.
func TestTraceCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("coverage survey")
	}
	model := energy.Default()
	totalReplays := uint64(0)
	for _, w := range workloads.Responsive() {
		prog, initial := w.Build(0.05)
		core := cpu.New(model, mem.NewDefaultHierarchy(), initial.Clone())
		if err := core.Run(prog); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		eng := core.Engine
		if eng == nil {
			t.Fatalf("%s: tracing disabled by default", w.Name)
		}
		var traced, tombs int
		var traceInstr uint64
		for _, tr := range eng.Traces {
			if tr == nil {
				continue
			}
			if tr.Ops == nil {
				tombs++
			} else {
				traced++
				traceInstr += tr.NInstr
			}
		}
		cover := float64(eng.ReplayedInstrs) / float64(core.Acct.Instrs)

		prof, err := profile.Collect(model, prog, initial)
		if err != nil {
			t.Fatalf("%s: profile: %v", w.Name, err)
		}
		plan, err := compiler.NewPlan(model, prog, prof, compiler.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: plan: %v", w.Name, err)
		}
		watched := cpu.New(model, mem.NewDefaultHierarchy(), initial.Clone())
		watched.Watch = plan.Watch()
		if watched.Watch == nil {
			t.Fatalf("%s: no validation watch", w.Name)
		}
		if err := watched.Run(prog); err != nil {
			t.Fatalf("%s watched: %v", w.Name, err)
		}
		wcover := float64(watched.Engine.ReplayedInstrs) / float64(watched.Acct.Instrs)
		t.Logf("%-4s instrs=%9d built=%3d blacklisted=%3d replays=%9d cover=%5.1f%% watched pcs=%3d cover=%5.1f%%",
			w.Name, core.Acct.Instrs, eng.Built, eng.Blacklisted, eng.Replays,
			100*cover, len(watched.Watch.PCs), 100*wcover)
		if math.Abs(wcover-cover) > 0.01 {
			t.Errorf("%s: watched replay coverage %.3f, unwatched %.3f", w.Name, wcover, cover)
		}
		totalReplays += eng.Replays
	}
	if totalReplays == 0 {
		t.Fatal("no trace was ever replayed across the responsive suite")
	}
}
