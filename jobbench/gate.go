package main

// The correctness gate. Every job's output is checked against values
// recorded at the seed commit (expected.json, written by -record): the
// simulated counts must be equal, and energy and time must agree within
// relTol. Simulated statistics are a gate only, never a metric.

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"

	"github.com/amnesiac-sim/amnesiac/internal/harness"
	"github.com/amnesiac-sim/amnesiac/internal/server"
)

const relTol = 1e-9

//go:embed expected.json
var expectedJSON []byte

// acctRec is the gated part of one simulated execution.
type acctRec struct {
	Instrs   uint64  `json:"instrs"`
	Loads    uint64  `json:"loads"`
	Stores   uint64  `json:"stores"`
	EnergyNJ float64 `json:"energy_nj"`
	TimeNS   float64 `json:"time_ns"`
}

type policyRec struct {
	acctRec
	RcmpFired uint64 `json:"rcmp_fired"`
	RcmpTotal uint64 `json:"rcmp_total"`
	Verified  bool   `json:"verified"`
}

// suiteRec is one kernel's suite result: slices selected, the classic
// baseline and every policy run.
type suiteRec struct {
	Slices   int                  `json:"slices"`
	Classic  acctRec              `json:"classic"`
	Policies map[string]policyRec `json:"policies"`
}

// expected holds the recorded values, keyed by suiteKey, breakEvenKey and
// checkpointKey.
type expected struct {
	Suite      map[string]suiteRec               `json:"suite"`
	BreakEven  map[string]float64                `json:"break_even"`
	Checkpoint map[string][]server.CheckpointRow `json:"checkpoint"`
}

func suiteKey(kernel string, scale float64) string { return fmt.Sprintf("%s@%g", kernel, scale) }

func breakEvenKey(kernel string, scale, maxR float64) string {
	return fmt.Sprintf("%s@%g/r%g", kernel, scale, maxR)
}

func checkpointKey(kernel string, scale float64, interval uint64) string {
	return fmt.Sprintf("%s@%g/i%d", kernel, scale, interval)
}

func loadExpected() (*expected, error) {
	var e expected
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &e, nil
}

// classicInstrs maps each kernel to its recorded classic instruction
// count at scale.
func (e *expected) classicInstrs(scale float64) map[string]uint64 {
	m := map[string]uint64{}
	for _, k := range kernelNames() {
		m[k] = e.Suite[suiteKey(k, scale)].Classic.Instrs
	}
	return m
}

// suiteRecOf extracts the gated values of an in-process suite result.
func suiteRecOf(r *harness.BenchResult) suiteRec {
	acct := func(instrs, loads, stores uint64, e, t float64) acctRec {
		return acctRec{Instrs: instrs, Loads: loads, Stores: stores, EnergyNJ: e, TimeNS: t}
	}
	c := r.Classic.Acct
	rec := suiteRec{
		Slices:   len(r.Ann.Slices),
		Classic:  acct(c.Instrs, c.Loads, c.Stores, c.EnergyNJ, c.TimeNS),
		Policies: map[string]policyRec{},
	}
	for label, run := range r.Runs {
		a := run.Acct
		rec.Policies[label] = policyRec{
			acctRec:   acct(a.Instrs, a.Loads, a.Stores, a.EnergyNJ, a.TimeNS),
			RcmpFired: run.Stat.RcmpRecomputed, RcmpTotal: run.Stat.RcmpTotal,
			Verified: run.Verified,
		}
	}
	return rec
}

// suiteRecOfReport extracts the gated values of a served suite entry.
// Reports carry no per-policy instruction, load or store counts.
func suiteRecOfReport(w server.WorkloadReport) suiteRec {
	c := w.Classic
	rec := suiteRec{
		Slices:   w.Slices,
		Classic:  acctRec{Instrs: c.Instrs, Loads: c.Loads, Stores: c.Stores, EnergyNJ: c.EnergyNJ, TimeNS: c.TimeNS},
		Policies: map[string]policyRec{},
	}
	for _, p := range w.Policies {
		rec.Policies[p.Label] = policyRec{
			acctRec:   acctRec{EnergyNJ: p.EnergyNJ, TimeNS: p.TimeNS},
			RcmpFired: p.RcmpFired, RcmpTotal: p.RcmpTotal, Verified: p.Verified,
		}
	}
	return rec
}

func closeTo(a, b float64) bool {
	return a == b || math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b))
}

func checkAcct(what string, want, got acctRec, counts bool) error {
	if counts && (want.Instrs != got.Instrs || want.Loads != got.Loads || want.Stores != got.Stores) {
		return fmt.Errorf("%s: instrs/loads/stores %d/%d/%d, want %d/%d/%d", what,
			got.Instrs, got.Loads, got.Stores, want.Instrs, want.Loads, want.Stores)
	}
	if !closeTo(want.EnergyNJ, got.EnergyNJ) || !closeTo(want.TimeNS, got.TimeNS) {
		return fmt.Errorf("%s: energy/time %.17g/%.17g, want %.17g/%.17g", what,
			got.EnergyNJ, got.TimeNS, want.EnergyNJ, want.TimeNS)
	}
	return nil
}

// checkSuite gates one kernel's suite result: exactly the policies in
// labels, each verified, with the recorded counts, energy and time.
// policyCounts is false for served reports, which omit per-policy counts.
func (e *expected) checkSuite(kernel string, scale float64, labels []string, got suiteRec, policyCounts bool) error {
	key := suiteKey(kernel, scale)
	want, ok := e.Suite[key]
	if !ok {
		return fmt.Errorf("gate: no recorded suite values for %s", key)
	}
	if got.Slices != want.Slices {
		return fmt.Errorf("gate: %s: %d slices, want %d", key, got.Slices, want.Slices)
	}
	if err := checkAcct(key+" classic", want.Classic, got.Classic, true); err != nil {
		return fmt.Errorf("gate: %w", err)
	}
	if len(got.Policies) != len(labels) {
		return fmt.Errorf("gate: %s: %d policy runs, want %d", key, len(got.Policies), len(labels))
	}
	for _, l := range labels {
		g, ok := got.Policies[l]
		w := want.Policies[l]
		switch {
		case !ok:
			return fmt.Errorf("gate: %s: no %s run", key, l)
		case !g.Verified:
			return fmt.Errorf("gate: %s %s: not verified", key, l)
		case g.RcmpFired != w.RcmpFired || g.RcmpTotal != w.RcmpTotal:
			return fmt.Errorf("gate: %s %s: RCMP fired/total %d/%d, want %d/%d", key, l, g.RcmpFired, g.RcmpTotal, w.RcmpFired, w.RcmpTotal)
		}
		if err := checkAcct(key+" "+l, w.acctRec, g.acctRec, policyCounts); err != nil {
			return fmt.Errorf("gate: %w", err)
		}
	}
	return nil
}

func (e *expected) checkBreakEven(kernel string, scale, maxR, got float64) error {
	key := breakEvenKey(kernel, scale, maxR)
	want, ok := e.BreakEven[key]
	if !ok {
		return fmt.Errorf("gate: no recorded break-even factor for %s", key)
	}
	if got != want {
		return fmt.Errorf("gate: %s: break-even factor %.17g, want %.17g", key, got, want)
	}
	return nil
}

func (e *expected) checkCheckpoint(kernel string, scale float64, interval uint64, got []server.CheckpointRow) error {
	key := checkpointKey(kernel, scale, interval)
	want, ok := e.Checkpoint[key]
	if !ok {
		return fmt.Errorf("gate: no recorded checkpoint rows for %s", key)
	}
	if len(got) != len(want) {
		return fmt.Errorf("gate: %s: %d checkpoint rows, want %d", key, len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if !g.Verified {
			return fmt.Errorf("gate: %s %s: restart not verified", key, g.Policy)
		}
		if g.Name != w.Name || g.Policy != w.Policy || g.Interval != w.Interval || g.Checkpoints != w.Checkpoints ||
			g.RestartWords != w.RestartWords || g.RestartRecomputed != w.RestartRecomputed {
			return fmt.Errorf("gate: %s row %d: counts %+v, want %+v", key, i, g, w)
		}
		for _, f := range [][2]float64{
			{g.AvgPayloadWords, w.AvgPayloadWords}, {g.FootprintWords, w.FootprintWords},
			{g.SavingsPct, w.SavingsPct}, {g.CkptEnergyNJ, w.CkptEnergyNJ},
			{g.RestartEnergyNJ, w.RestartEnergyNJ}, {g.RestartTimeNS, w.RestartTimeNS},
		} {
			if !closeTo(f[1], f[0]) {
				return fmt.Errorf("gate: %s row %d: %+v, want %+v", key, i, g, w)
			}
		}
	}
	return nil
}

// checkReport gates a served report against its spec.
func (e *expected) checkReport(spec server.JobSpec, rep server.Report) error {
	if rep.Spec.Kind != spec.Kind {
		return fmt.Errorf("gate: report kind %q for a %q job", rep.Spec.Kind, spec.Kind)
	}
	switch spec.Kind {
	case server.KindSuite:
		if len(rep.Suite) != len(spec.Workloads) {
			return fmt.Errorf("gate: %d suite entries, want %d", len(rep.Suite), len(spec.Workloads))
		}
		labels := spec.Policies
		if len(labels) == 0 {
			labels = harness.PolicyLabels
		}
		for i, w := range rep.Suite {
			if w.Name != spec.Workloads[i] {
				return fmt.Errorf("gate: suite entry %q, want %q", w.Name, spec.Workloads[i])
			}
			if err := e.checkSuite(w.Name, spec.Scale, labels, suiteRecOfReport(w), false); err != nil {
				return err
			}
		}
	case server.KindBreakEven:
		if len(rep.BreakEven) != len(spec.Workloads) {
			return fmt.Errorf("gate: %d break-even rows, want %d", len(rep.BreakEven), len(spec.Workloads))
		}
		for _, r := range rep.BreakEven {
			if err := e.checkBreakEven(r.Name, spec.Scale, spec.MaxR, r.Factor); err != nil {
				return err
			}
		}
	case server.KindCheckpoint:
		for _, k := range spec.Workloads {
			var rows []server.CheckpointRow
			for _, r := range rep.Checkpoint {
				if r.Name == k {
					rows = append(rows, r)
				}
			}
			if err := e.checkCheckpoint(k, spec.Scale, spec.CkptInterval, rows); err != nil {
				return err
			}
		}
	case server.KindDifftest:
		d := rep.Difftest
		if d == nil || d.Seed != spec.Seed || d.Seeds != spec.Seeds || d.Failed != 0 || d.Passed != spec.Seeds {
			return fmt.Errorf("gate: difftest %+v for seeds %d+%d: divergences or missing seeds", d, spec.Seed, spec.Seeds)
		}
	default:
		return fmt.Errorf("gate: unknown kind %q", spec.Kind)
	}
	return nil
}
