// Checkpoint experiments family: checkpoint size and energy versus full
// snapshots, and restart latency across policies, for the sibling paper
// "Recomputation Enabled Efficient Checkpointing". One no-crash engine pass
// per (workload, policy) measures steady-state checkpoint traffic over the
// whole run; a second pass crashed at ~60% of the dynamic instruction
// count measures the restart path and verifies — bit-for-bit against the
// classic baseline — that the resumed run is indistinguishable from the
// uninterrupted one.
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
// dynamic instruction count.
func RunCheckpoint(cfg Config, w *workloads.Workload, interval uint64) ([]*CheckpointResult, error) {
	cfg = cfg.withDefaults()
	art, err := cfg.cache().get(cfg, w)
	if err != nil {
		return nil, err
	}
	classic := art.Classic
	iv := resolveInterval(interval, classic.Acct.Instrs)
	crash := classic.Acct.Instrs * 3 / 5
	if crash == 0 {
		crash = 1
	}

	out := make([]*CheckpointResult, 0, len(CheckpointPolicies))
	for _, pol := range CheckpointPolicies {
		row := &CheckpointResult{Workload: w.Name, Policy: pol, Interval: iv}

		// Pass 1: uninterrupted, measuring checkpoint traffic end to end.
		steady, err := ckpt.NewEngineImage(cfg.Model, art.Prog, art.Image, art.OracleAnn, art.Profile, ckpt.Config{
			Policy: pol, Interval: iv, MaxInstrs: cfg.MaxInstrs,
		})
		if err != nil {
			return nil, fmt.Errorf("harness: %s checkpoint: %w", w.Name, err)
		}
		res, err := steady.Run()
		if err != nil {
			return nil, fmt.Errorf("harness: %s checkpoint (%s): %w", w.Name, pol, err)
		}
		if !res.Completed {
			return nil, fmt.Errorf("harness: %s checkpoint (%s): run did not complete", w.Name, pol)
		}
		st := steady.Stats
		row.Checkpoints = st.Taken
		row.AvgPayloadWords = float64(st.SavedWords)/float64(st.Taken) + isa.NumRegs
		row.FootprintWords = float64(st.FullWords)/float64(st.Taken) + isa.NumRegs
		row.SavingsPct = 100 * (1 - row.AvgPayloadWords/row.FootprintWords)
		row.CkptEnergyNJ = st.CkptEnergyNJ

		// Pass 2: crash at ~60%, restart from the surviving checkpoint, and
		// verify the splice against the classic baseline.
		crashed, err := ckpt.NewEngineImage(cfg.Model, art.Prog, art.Image, art.OracleAnn, art.Profile, ckpt.Config{
			Policy: pol, Interval: iv, MaxInstrs: cfg.MaxInstrs, CrashAt: crash,
		})
		if err != nil {
			return nil, fmt.Errorf("harness: %s checkpoint: %w", w.Name, err)
		}
		cres, err := crashed.Run()
		if err != nil {
			return nil, fmt.Errorf("harness: %s checkpoint crash (%s): %w", w.Name, pol, err)
		}
		if !cres.Crashed {
			return nil, fmt.Errorf("harness: %s checkpoint (%s): fault at %d did not fire", w.Name, pol, crash)
		}
		ck := crashed.Checkpoints[len(crashed.Checkpoints)-1]
		resumed, err := ckpt.NewEngineImage(cfg.Model, art.Prog, art.Image, art.OracleAnn, art.Profile, ckpt.Config{
			Policy: pol, Interval: iv, MaxInstrs: cfg.MaxInstrs,
		})
		if err != nil {
			return nil, fmt.Errorf("harness: %s checkpoint: %w", w.Name, err)
		}
		rres, err := resumed.Restart(ck)
		if err != nil {
			return nil, fmt.Errorf("harness: %s checkpoint restart (%s): %w", w.Name, pol, err)
		}
		row.RestartWords = rres.Restore.Words
		row.RestartRecomputed = rres.Restore.Recomputed
		row.RestartEnergyNJ = rres.Restore.EnergyNJ
		row.RestartTimeNS = rres.Restore.TimeNS
		row.Verified = rres.Completed && rres.Regs == classic.Regs && rres.Acct == classic.Acct
		out = append(out, row)
	}
	return out, nil
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
