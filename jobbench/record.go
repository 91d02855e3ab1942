package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"

	"github.com/amnesiac-sim/amnesiac/internal/harness"
	"github.com/amnesiac-sim/amnesiac/internal/server"
	"github.com/amnesiac-sim/amnesiac/internal/workloads"
)

// recordExpected computes the gated values of every job the streams can
// draw — suites and break-even sweeps at closedScale, and suites,
// break-even sweeps at every serveMaxR and checkpoint rows at every
// checkpoint interval at serveScale — and writes them as the gate's
// expected.json.
func recordExpected(path string) error {
	e := expected{Suite: map[string]suiteRec{}, BreakEven: map[string]float64{}, Checkpoint: map[string][]server.CheckpointRow{}}
	ws := workloads.Responsive()
	for _, scale := range []float64{closedScale, serveScale} {
		cfg := harness.DefaultConfig()
		cfg.Scale = scale
		cfg.Cache = harness.NewArtifactCache()
		results, err := harness.RunSuite(cfg, ws)
		if err != nil {
			return err
		}
		for _, r := range results {
			e.Suite[suiteKey(r.Workload.Name, scale)] = suiteRecOf(r)
		}
		maxRs := []float64{warmMaxR}
		if scale == serveScale {
			maxRs = serveMaxR
		}
		for _, w := range ws {
			for _, maxR := range maxRs {
				f, err := harness.BreakEven(cfg, w, maxR)
				if err != nil {
					return err
				}
				e.BreakEven[breakEvenKey(w.Name, scale, maxR)] = f
			}
			if scale != serveScale || !slices.Contains(serveKernels[server.KindCheckpoint], w.Name) {
				continue
			}
			instrs := e.Suite[suiteKey(w.Name, scale)].Classic.Instrs
			for i := 0; i < serveCheckpoints; i++ {
				if err := recordCheckpoint(&e, cfg, w, scale, checkpointInterval(instrs, i)); err != nil {
					return err
				}
			}
		}
	}
	data, err := json.MarshalIndent(&e, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

// recordCheckpoint records one checkpoint job's rows as the daemon reports
// them.
func recordCheckpoint(e *expected, cfg harness.Config, w *workloads.Workload, scale float64, interval uint64) error {
	rows, err := harness.RunCheckpoint(cfg, w, interval)
	if err != nil {
		return err
	}
	key := checkpointKey(w.Name, scale, interval)
	for _, cr := range rows {
		e.Checkpoint[key] = append(e.Checkpoint[key], server.CheckpointRow{
			Name:              cr.Workload,
			Policy:            cr.Policy.String(),
			Interval:          cr.Interval,
			Checkpoints:       cr.Checkpoints,
			AvgPayloadWords:   cr.AvgPayloadWords,
			FootprintWords:    cr.FootprintWords,
			SavingsPct:        cr.SavingsPct,
			CkptEnergyNJ:      cr.CkptEnergyNJ,
			RestartWords:      cr.RestartWords,
			RestartRecomputed: cr.RestartRecomputed,
			RestartEnergyNJ:   cr.RestartEnergyNJ,
			RestartTimeNS:     cr.RestartTimeNS,
			Verified:          cr.Verified,
		})
	}
	return nil
}
