// Breakeven sweeps the relative cost of computation vs communication
// (R = EPI_nonmem / EPI_ld, paper §5.5): as R grows, recomputation becomes
// less attractive, and past the break-even point amnesic execution stops
// paying off. The sweep freezes the C-Oracle's firing decisions at the
// default R and scales the accounted compute energy. Scaling R changes no
// event count, so the example simulates the classic and C-Oracle programs
// once each and prices their accounts at every factor.
//
// Usage: breakeven [benchmark] (default is)
package main

import (
	"fmt"
	"log"
	"os"

	"github.com/amnesiac-sim/amnesiac/internal/amnesic"
	"github.com/amnesiac-sim/amnesiac/internal/compiler"
	"github.com/amnesiac-sim/amnesiac/internal/cpu"
	"github.com/amnesiac-sim/amnesiac/internal/energy"
	"github.com/amnesiac-sim/amnesiac/internal/harness"
	"github.com/amnesiac-sim/amnesiac/internal/policy"
	"github.com/amnesiac-sim/amnesiac/internal/profile"
	"github.com/amnesiac-sim/amnesiac/internal/uarch"
	"github.com/amnesiac-sim/amnesiac/internal/workloads"
)

func main() {
	name := "is"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	w, err := workloads.Get(name)
	if err != nil {
		log.Fatal(err)
	}

	const scale = 0.35
	base := energy.Default()
	prog, initial := w.Build(scale)
	prof, err := profile.Collect(base, prog, initial)
	if err != nil {
		log.Fatal(err)
	}
	ann, err := compiler.Compile(base, prog, prof, initial, compiler.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	if len(ann.Slices) == 0 {
		log.Fatalf("%s: no recomputation slices; pick a responsive benchmark", name)
	}

	classic, err := cpu.RunProgram(base, prog, initial.Clone())
	if err != nil {
		log.Fatal(err)
	}
	machine, err := amnesic.New(base, ann, initial.Clone(), policy.New(policy.Exact), uarch.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	if err := machine.Run(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("R sweep for %s (Rdefault = %.4f)\n", w.Name, base.R())
	fmt.Printf("%10s %14s %14s %10s\n", "R factor", "classic EDP", "amnesic EDP", "EDP gain")
	m := base.Clone()
	c, a := classic.Acct, machine.Acct
	for _, factor := range []float64{1, 2, 5, 10, 20, 50, 100, 200} {
		m.RScale = factor
		c.Price(m)
		a.Price(m)
		gain := 100 * (1 - a.EDP()/c.EDP())
		fmt.Printf("%10.0f %14.4e %14.4e %+9.2f%%\n", factor, c.EDP(), a.EDP(), gain)
	}

	cfg := harness.DefaultConfig()
	cfg.Scale = scale
	be, err := harness.BreakEven(cfg, w, 500)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbreak-even R (normalized to Rdefault): %.1fx\n", be)
	fmt.Println("Unless computation energy grows by that factor relative to loads,")
	fmt.Println("amnesic execution stays more energy-efficient (paper Table 6).")
}
