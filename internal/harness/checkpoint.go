// Checkpoint experiments family: checkpoint size and energy versus full
// snapshots, and restart latency across policies, for the sibling paper
// "Recomputation Enabled Efficient Checkpointing". Each (workload, policy)
// row takes two engine passes. The first is crashed at ~60% of the dynamic
// instruction count; the second restarts from its last checkpoint, which
// measures the restart path, and runs to completion. A restarted engine
// resumes from the checkpoint's state, numbering and running totals, so
// the first pass's checkpoints followed by the second's are exactly the
// checkpoints an uninterrupted run takes, and the second pass's totals are
// the uninterrupted run's steady-state checkpoint traffic. The row's
// Verified column checks the premise: the resumed run's final registers
// and energy account equal the classic baseline's bit for bit.
package harness

import (
	"context"
	"fmt"
	"io"

	"github.com/amnesiac-sim/amnesiac/internal/ckpt"
	"github.com/amnesiac-sim/amnesiac/internal/isa"
	"github.com/amnesiac-sim/amnesiac/internal/stats"
	"github.com/amnesiac-sim/amnesiac/internal/workloads"
)

// CheckpointPolicies is the policy grid the checkpoint family reports.
var CheckpointPolicies = []ckpt.Policy{ckpt.PolicyFull, ckpt.PolicyRecomp}

// CheckpointResult is one (workload, policy) row of the checkpoint table.
type CheckpointResult struct {
	Workload string
	Policy   ckpt.Policy
	// Interval is the checkpoint period in dynamic instructions.
	Interval uint64
	// Checkpoints taken over the uninterrupted run.
	Checkpoints int
	// AvgPayloadWords is the mean checkpoint payload (saved memory words
	// plus the register file); FootprintWords is what PolicyFull saves per
	// checkpoint. SavingsPct = 100·(1 − Avg/Footprint).
	AvgPayloadWords float64
	FootprintWords  float64
	SavingsPct      float64
	// CkptEnergyNJ is the total modeled checkpoint write energy.
	CkptEnergyNJ float64
	// Restart metrics from a crash at ~60% of the run: words restored from
	// the checkpoint, words regenerated by recomputation, and the modeled
	// restore energy/latency.
	RestartWords      int
	RestartRecomputed int
	RestartEnergyNJ   float64
	RestartTimeNS     float64
	// Verified reports that the restarted run's final registers and full
	// energy account are bit-identical to the uninterrupted classic
	// baseline.
	Verified bool
}

// resolveInterval defaults the checkpoint period to ~1/8 of the workload's
// dynamic instruction count, so every run takes a handful of checkpoints
// regardless of scale.
func resolveInterval(interval, totalInstrs uint64) uint64 {
	if interval != 0 {
		return interval
	}
	return totalInstrs/8 + 1
}

// RunCheckpoint runs the checkpoint experiments for one workload across
// CheckpointPolicies. interval 0 derives the period from the workload's
// dynamic instruction count. Each row runs two engines: one crashed at
// ~60% of the run, and one restarted from its surviving checkpoint. The
// restarted engine's Stats are the uninterrupted run's (see ckpt.Stats),
// so they give the row's checkpoint counts, payload and energy without a
// third, uninterrupted pass.
func RunCheckpoint(cfg Config, w *workloads.Workload, interval uint64) ([]*CheckpointResult, error) {
	cfg = cfg.withDefaults()
	art, err := cfg.cache().get(cfg, w)
	if err != nil {
		return nil, err
	}
	iv := resolveInterval(interval, art.Classic.Acct.Instrs)
	crash := max(art.Classic.Acct.Instrs*3/5, 1)

	out := make([]*CheckpointResult, 0, len(CheckpointPolicies))
	for _, pol := range CheckpointPolicies {
		row, err := checkpointRow(cfg, art, w.Name, pol, iv, crash)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// checkpointRow runs one policy's two engine passes and releases both
// engines' forks of art.Image before it returns.
func checkpointRow(cfg Config, art *Artifacts, name string, pol ckpt.Policy, iv, crash uint64) (*CheckpointResult, error) {
	row := &CheckpointResult{Workload: name, Policy: pol, Interval: iv}

	// Pass 1: crash at ~60%, leaving the last checkpoint before it. The
	// engine is released, not deferred, so that its fork and buffers are
	// garbage while pass 2 runs.
	crashed, err := ckpt.NewEngine(cfg.Model, art.Prog, art.Image, art.OracleAnn, art.Profile, ckpt.Config{
		Policy: pol, Interval: iv, MaxInstrs: cfg.MaxInstrs, CrashAt: crash,
	})
	if err != nil {
		return nil, fmt.Errorf("harness: %s checkpoint: %w", name, err)
	}
	cres, err := crashed.Run()
	crashed.Release()
	if err != nil {
		return nil, fmt.Errorf("harness: %s checkpoint crash (%s): %w", name, pol, err)
	}
	if !cres.Crashed {
		return nil, fmt.Errorf("harness: %s checkpoint (%s): fault at %d did not fire", name, pol, crash)
	}

	// Pass 2: restart from that checkpoint and run to the end, taking the
	// rest of the uninterrupted run's checkpoints.
	ck := crashed.Checkpoints[len(crashed.Checkpoints)-1]
	resumed, err := ckpt.NewEngine(cfg.Model, art.Prog, art.Image, art.OracleAnn, art.Profile, ckpt.Config{
		Policy: pol, Interval: iv, MaxInstrs: cfg.MaxInstrs,
	})
	if err != nil {
		return nil, fmt.Errorf("harness: %s checkpoint: %w", name, err)
	}
	defer resumed.Release()
	rres, err := resumed.Restart(ck)
	if err != nil {
		return nil, fmt.Errorf("harness: %s checkpoint restart (%s): %w", name, pol, err)
	}
	st := resumed.Stats
	row.Checkpoints = st.Taken
	row.AvgPayloadWords = float64(st.SavedWords)/float64(st.Taken) + isa.NumRegs
	row.FootprintWords = float64(st.FullWords)/float64(st.Taken) + isa.NumRegs
	row.SavingsPct = 100 * (1 - row.AvgPayloadWords/row.FootprintWords)
	row.CkptEnergyNJ = st.CkptEnergyNJ
	row.RestartWords = rres.Restore.Words
	row.RestartRecomputed = rres.Restore.Recomputed
	row.RestartEnergyNJ = rres.Restore.EnergyNJ
	row.RestartTimeNS = rres.Restore.TimeNS
	row.Verified = rres.Completed && rres.Regs == art.Classic.Regs && rres.Acct == art.Classic.Acct
	return row, nil
}

// RunCheckpointSuite runs the checkpoint family over a workload list,
// cfg.Workers workloads at a time, and returns the rows in workload order.
// On failure it returns the lowest-index workload's error, or ctx's error
// once ctx is cancelled.
func RunCheckpointSuite(ctx context.Context, cfg Config, ws []*workloads.Workload, interval uint64) ([]*CheckpointResult, error) {
	rows := make([][]*CheckpointResult, len(ws))
	err := eachWorkload(ctx, cfg, ws, "checkpoint", func(i int, w *workloads.Workload) (err error) {
		rows[i], err = RunCheckpoint(cfg, w, interval)
		return err
	})
	if err != nil {
		return nil, err
	}
	var out []*CheckpointResult
	for _, r := range rows {
		out = append(out, r...)
	}
	return out, nil
}

// CheckpointTable renders the checkpoint size/energy/restart-latency table.
func CheckpointTable(wr io.Writer, cfg Config, ws []*workloads.Workload, interval uint64) error {
	results, err := RunCheckpointSuite(context.Background(), cfg, ws, interval)
	if err != nil {
		return err
	}
	fmt.Fprintln(wr, "Checkpoint size, energy, and restart latency (recomputation-enabled checkpointing)")
	t := stats.NewTable("Benchmark", "Policy", "Interval", "Ckpts", "Avg payload (words)",
		"Footprint (words)", "Savings", "Ckpt energy (nJ)", "Restart words", "Recomputed",
		"Restart nJ", "Restart ns", "Verified")
	for _, r := range results {
		t.Row(r.Workload, r.Policy.String(), r.Interval, r.Checkpoints,
			fmt.Sprintf("%.1f", r.AvgPayloadWords),
			fmt.Sprintf("%.1f", r.FootprintWords),
			fmt.Sprintf("%.1f%%", r.SavingsPct),
			fmt.Sprintf("%.1f", r.CkptEnergyNJ),
			r.RestartWords, r.RestartRecomputed,
			fmt.Sprintf("%.1f", r.RestartEnergyNJ),
			fmt.Sprintf("%.1f", r.RestartTimeNS),
			r.Verified)
	}
	t.Render(wr)
	return nil
}
