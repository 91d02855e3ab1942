package exec_test

import (
	"os"
	"syscall"
	"testing"

	"github.com/amnesiac-sim/amnesiac/internal/cpu"
	"github.com/amnesiac-sim/amnesiac/internal/energy"
	"github.com/amnesiac-sim/amnesiac/internal/mem"
	"github.com/amnesiac-sim/amnesiac/internal/trace"
	"github.com/amnesiac-sim/amnesiac/internal/workloads"
)

func cpuNS() int64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// TestProfWorkload A/B-compares traced vs untraced execution of the shared
// core in one process, alternating per iteration so host-speed drift hits
// both sides equally. The gate: aggregate traced/untraced >= 1.3x.
func TestProfWorkload(t *testing.T) {
	if os.Getenv("PROF_WORKLOAD") == "" {
		t.Skip("set PROF_WORKLOAD")
	}
	model := energy.Default()
	var tOn, tOff, nOn, nOff int64
	for _, w := range workloads.Responsive() {
		prog, initial := w.Build(0.3)
		var onNS, offNS int64
		var onI, offI uint64
		for i := 0; i < 8; i++ {
			coreOn := cpu.New(model, mem.NewDefaultHierarchy(), initial.Clone())
			s := cpuNS()
			if err := coreOn.Run(prog); err != nil {
				t.Fatal(err)
			}
			onNS += cpuNS() - s
			onI += coreOn.Acct.Instrs
			coreOff := cpu.New(model, mem.NewDefaultHierarchy(), initial.Clone())
			coreOff.Trace = trace.Config{}
			s = cpuNS()
			if err := coreOff.Run(prog); err != nil {
				t.Fatal(err)
			}
			offNS += cpuNS() - s
			offI += coreOff.Acct.Instrs
		}
		t.Logf("%-4s traced=%6.1f interp=%6.1f MIPS(cpu) ratio=%.3f",
			w.Name, float64(onI)*1e3/float64(onNS), float64(offI)*1e3/float64(offNS),
			float64(onI)*float64(offNS)/(float64(offI)*float64(onNS)))
		tOn += onNS
		tOff += offNS
		nOn += int64(onI)
		nOff += int64(offI)
	}
	ratio := float64(nOn) * float64(tOff) / (float64(nOff) * float64(tOn))
	t.Logf("AGG  traced=%6.1f interp=%6.1f ratio=%.3f",
		float64(nOn)*1e3/float64(tOn), float64(nOff)*1e3/float64(tOff), ratio)
	if ratio < 1.3 {
		t.Errorf("traced classic %.3fx untraced, want >= 1.3x", ratio)
	}
}
