package harness_test

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/amnesiac-sim/amnesiac/internal/ckpt"
	"github.com/amnesiac-sim/amnesiac/internal/harness"
	"github.com/amnesiac-sim/amnesiac/internal/isa"
	"github.com/amnesiac-sim/amnesiac/internal/workloads"
)

// checkpointThreeEngines is the protocol RunCheckpoint replaced, kept as
// its reference: per policy an uninterrupted engine measures the
// steady-state checkpoint traffic, and a separate crashed engine plus a
// restart measure the restart path.
func checkpointThreeEngines(cfg harness.Config, w *workloads.Workload, interval uint64) ([]*harness.CheckpointResult, error) {
	art, err := cfg.Cache.Get(cfg, w)
	if err != nil {
		return nil, err
	}
	classic := art.Classic
	iv := interval
	if iv == 0 {
		iv = classic.Acct.Instrs/8 + 1
	}
	crash := max(classic.Acct.Instrs*3/5, 1)
	engine := func(pol ckpt.Policy, crashAt uint64) (*ckpt.Engine, error) {
		return ckpt.NewEngineImage(cfg.Model, art.Prog, art.Image, art.OracleAnn, art.Profile, ckpt.Config{
			Policy: pol, Interval: iv, MaxInstrs: cfg.MaxInstrs, CrashAt: crashAt,
		})
	}
	var out []*harness.CheckpointResult
	for _, pol := range harness.CheckpointPolicies {
		row := &harness.CheckpointResult{Workload: w.Name, Policy: pol, Interval: iv}
		steady, err := engine(pol, 0)
		if err != nil {
			return nil, err
		}
		if res, err := steady.Run(); err != nil || !res.Completed {
			return nil, fmt.Errorf("steady %s: %+v, %v", pol, res, err)
		}
		st := steady.Stats
		row.Checkpoints = st.Taken
		row.AvgPayloadWords = float64(st.SavedWords)/float64(st.Taken) + isa.NumRegs
		row.FootprintWords = float64(st.FullWords)/float64(st.Taken) + isa.NumRegs
		row.SavingsPct = 100 * (1 - row.AvgPayloadWords/row.FootprintWords)
		row.CkptEnergyNJ = st.CkptEnergyNJ

		crashed, err := engine(pol, crash)
		if err != nil {
			return nil, err
		}
		if res, err := crashed.Run(); err != nil || !res.Crashed {
			return nil, fmt.Errorf("crashed %s: %+v, %v", pol, res, err)
		}
		resumed, err := engine(pol, 0)
		if err != nil {
			return nil, err
		}
		rres, err := resumed.Restart(crashed.Checkpoints[len(crashed.Checkpoints)-1])
		if err != nil {
			return nil, err
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

// TestCheckpointMatchesThreeEngines: the two-engine protocol reports every
// CheckpointResult field exactly as the three-engine reference does, on
// the checkpoint jobs the job-level benchmark serves (five kernels at 0.1,
// intervals two to five past an eighth of the run) and on three edge
// cases: a program with an empty store footprint, an interval longer than
// the run (one checkpoint, at instruction 0), and a crash landing exactly
// on a checkpoint boundary (the crash wins, so the restart resumes one
// interval earlier and retakes the boundary checkpoint). Under the race
// detector each kernel runs only its first interval: the four intervals
// differ by a few instructions and do the same work.
func TestCheckpointMatchesThreeEngines(t *testing.T) {
	cfg := harness.DefaultConfig()
	cfg.Scale = 0.1
	cfg.Cache = harness.NewArtifactCache()
	type job struct {
		workload string
		interval func(instrs uint64) uint64
		check    func(t *testing.T, rows []*harness.CheckpointResult, instrs uint64)
	}
	intervals := uint64(4)
	if raceEnabled {
		intervals = 1
	}
	var jobs []job
	for _, name := range []string{"cg", "rt", "bp", "bfs", "sr"} {
		for i := uint64(0); i < intervals; i++ {
			jobs = append(jobs, job{workload: name, interval: func(n uint64) uint64 { return n/8 + 2 + i }})
		}
	}
	jobs = append(jobs,
		job{"perlbench", func(uint64) uint64 { return 0 }, func(t *testing.T, rows []*harness.CheckpointResult, _ uint64) {
			for _, r := range rows {
				if r.FootprintWords != isa.NumRegs {
					t.Errorf("%s: footprint %.1f words, want the register file alone", r.Policy, r.FootprintWords)
				}
			}
		}},
		job{"bfs", func(n uint64) uint64 { return n + 1 }, func(t *testing.T, rows []*harness.CheckpointResult, _ uint64) {
			for _, r := range rows {
				if r.Checkpoints != 1 {
					t.Errorf("%s: %d checkpoints, want 1", r.Policy, r.Checkpoints)
				}
			}
		}},
		job{"sr", func(n uint64) uint64 {
			crash := n * 3 / 5
			for d := uint64(4); d > 1; d-- {
				if crash%d == 0 {
					return crash / d
				}
			}
			return crash
		}, func(t *testing.T, rows []*harness.CheckpointResult, n uint64) {
			if crash := n * 3 / 5; crash%rows[0].Interval != 0 {
				t.Errorf("crash at %d is not on a boundary of interval %d", crash, rows[0].Interval)
			}
		}},
	)
	for _, j := range jobs {
		w, err := workloads.Get(j.workload)
		if err != nil {
			t.Fatal(err)
		}
		art, err := cfg.Cache.Get(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		instrs := art.Classic.Acct.Instrs
		interval := j.interval(instrs)
		t.Run(fmt.Sprintf("%s/%d", j.workload, interval), func(t *testing.T) {
			t.Parallel()
			got, err := harness.RunCheckpoint(cfg, w, interval)
			if err != nil {
				t.Fatal(err)
			}
			want, err := checkpointThreeEngines(cfg, w, interval)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%d rows, want %d", len(got), len(want))
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("row %d:\n got %+v\nwant %+v", i, got[i], want[i])
				}
				if !got[i].Verified {
					t.Errorf("row %d: restart not verified", i)
				}
			}
			if j.check != nil {
				j.check(t, got, instrs)
			}
		})
	}
}
