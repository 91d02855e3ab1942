// Package workloads provides the benchmark suite of paper Table 2: 33
// single-threaded kernels spanning SPEC-2006, NAS, PARSEC and Rodinia. The
// original benchmarks cannot be compiled for this simulator's ISA, so each
// is replaced by a synthetic kernel written directly in the IR and
// constructed to exhibit the characteristics the paper measured for it —
// the memory-access profile of its swappable loads (Table 5), its
// recomputation-slice lengths (Fig. 6), its share of non-recomputable leaf
// inputs (Fig. 7), and its load value locality (Fig. 8). DESIGN.md
// documents this substitution.
//
// The 11 "responsive" kernels (>10% EDP gain in the paper: mcf, sx, cg, is,
// ca, fs, fe, rt, bp, bfs, sr) are distinct hand-written algorithms; the
// remaining 22 low-benefit benchmarks are instances of four compute-bound
// archetypes whose loads offer little recomputation opportunity, matching
// the paper's finding that they "did not have many energy-hungry loads".
package workloads

import (
	"fmt"

	"github.com/amnesiac-sim/amnesiac/internal/isa"
	"github.com/amnesiac-sim/amnesiac/internal/mem"
)

// Workload is one benchmark stand-in.
type Workload struct {
	// Name is the paper's benchmark name (abbreviated as in Table 2's
	// figures: sx = sphinx3, ca = canneal, fs = facesim, fe = ferret,
	// rt = raytrace, bp = backpropagation, sr = srad).
	Name string
	// Suite is SPEC, NAS, PARSEC or Rodinia (Table 2).
	Suite string
	// Input labels the paper's input set (Table 2), kept for reporting.
	Input string
	// Description summarizes the synthetic kernel.
	Description string
	// Responsive marks the 11 benchmarks with >10% EDP gain potential.
	Responsive bool
	// Build constructs the program and its initial memory image. scale
	// multiplies the working-set/iteration sizes; 1.0 is the evaluation
	// default, tests use smaller values.
	Build func(scale float64) (*isa.Program, *mem.Memory)
}

var (
	registry = make(map[string]*Workload)
	ordered  []string
)

func register(w *Workload) {
	if _, dup := registry[w.Name]; dup {
		panic(fmt.Sprintf("workloads: duplicate %q", w.Name))
	}
	registry[w.Name] = w
	ordered = append(ordered, w.Name)
}

// Get returns the named workload.
func Get(name string) (*Workload, error) {
	w, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workloads: unknown benchmark %q", name)
	}
	return w, nil
}

// Names returns all benchmark names in registration (suite) order.
func Names() []string {
	out := make([]string, len(ordered))
	copy(out, ordered)
	return out
}

// All returns every workload in registration order.
func All() []*Workload {
	out := make([]*Workload, 0, len(ordered))
	for _, n := range ordered {
		out = append(out, registry[n])
	}
	return out
}

// Responsive returns the 11 benchmarks of the paper's Figs. 3–8, in the
// paper's reporting order: mcf sx cg is ca fs fe rt bp bfs sr.
func Responsive() []*Workload {
	order := []string{"mcf", "sx", "cg", "is", "ca", "fs", "fe", "rt", "bp", "bfs", "sr"}
	out := make([]*Workload, 0, len(order))
	for _, n := range order {
		out = append(out, registry[n])
	}
	return out
}

// scaled returns max(lo, int(v*scale)) rounded to a multiple of 8 words
// where alignment matters (callers round themselves when needed).
func scaled(v int, scale float64, lo int) int {
	n := int(float64(v) * scale)
	if n < lo {
		n = lo
	}
	return n
}
