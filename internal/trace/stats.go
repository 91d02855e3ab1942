package trace

import "sync"

// Stats is a point-in-time aggregate of trace-engine activity across one or
// more runs — the serving path's replay-health numbers. TotalInstrs is the
// runs' total dynamic instruction count (energy.Account.Instrs), the
// denominator of replay coverage.
type Stats struct {
	Built       uint64
	Blacklisted uint64
	// Invalidations is always 0: traces hold no recipe state, so nothing
	// ever drops one. It stays for the job benchmark's per-layer
	// amnesic.trace_invalidations metric, which reads it.
	Invalidations  uint64
	Replays        uint64
	ReplayedInstrs uint64
	TotalInstrs    uint64
}

// Coverage returns replayed instructions as a percentage of all retired
// instructions, 0 when nothing ran.
func (s Stats) Coverage() float64 {
	if s.TotalInstrs == 0 {
		return 0
	}
	return 100 * float64(s.ReplayedInstrs) / float64(s.TotalInstrs)
}

// Agg accumulates engine statistics across concurrent runs (the harness's
// worker pool observes every policy run's engine into one Agg per job).
type Agg struct {
	mu sync.Mutex
	s  Stats
}

// Observe folds one finished run's engine counters plus its total dynamic
// instruction count into the aggregate. A nil engine (tracing disabled)
// still contributes totalInstrs so coverage reflects untraced work.
func (a *Agg) Observe(e *Engine, totalInstrs uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.s.TotalInstrs += totalInstrs
	if e == nil {
		return
	}
	a.s.Built += e.Built
	a.s.Blacklisted += e.Blacklisted
	a.s.Replays += e.Replays
	a.s.ReplayedInstrs += e.ReplayedInstrs
}

// Load returns a snapshot of the aggregate.
func (a *Agg) Load() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.s
}
