package main

import (
	"context"
	"testing"

	"github.com/amnesiac-sim/amnesiac/internal/harness"
	"github.com/amnesiac-sim/amnesiac/internal/server"
)

// TestGateNegativeControl runs real jobs, checks that the gate passes
// them, then tampers with one value at a time and checks that the gate
// fires on each.
func TestGateNegativeControl(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	r := newClosedRunner(exp)
	ctx := context.Background()
	suite := closedJob{warmupKernel, server.KindSuite}
	res, err := r.run(ctx, suite)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.check(suite, res); err != nil {
		t.Fatalf("untampered suite job: %v", err)
	}
	for name, tamper := range map[string]func(*harness.BenchResult){
		"classic instrs": func(b *harness.BenchResult) { b.Classic.Acct.Instrs++ },
		"classic energy": func(b *harness.BenchResult) { b.Classic.Acct.EnergyNJ *= 1 + 1e-8 },
		"policy time":    func(b *harness.BenchResult) { b.Runs["LLC"].Acct.TimeNS *= 1 - 1e-8 },
		"policy stores":  func(b *harness.BenchResult) { b.Runs["FLC"].Acct.Stores-- },
		"rcmp fired":     func(b *harness.BenchResult) { b.Runs["Oracle"].Stat.RcmpRecomputed++ },
		"not verified":   func(b *harness.BenchResult) { b.Runs["Compiler"].Verified = false },
		"missing policy": func(b *harness.BenchResult) { delete(b.Runs, "C-Oracle") },
	} {
		b := *res.suite
		classic := *b.Classic
		b.Classic = &classic
		b.Runs = map[string]*harness.PolicyRun{}
		for l, run := range res.suite.Runs {
			cp := *run
			b.Runs[l] = &cp
		}
		tamper(&b)
		if err := r.check(suite, closedResult{suite: &b}); err == nil {
			t.Errorf("gate passed a result with tampered %s", name)
		}
	}

	warm := *r
	warm.cfg.Cache = harness.NewArtifactCache()
	sweep := closedJob{warmupKernel, server.KindBreakEven}
	be, err := warm.run(ctx, sweep)
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.check(sweep, be); err != nil {
		t.Fatalf("untampered break-even job: %v", err)
	}
	be.factor *= 1 + 1e-12
	if warm.check(sweep, be) == nil {
		t.Error("gate passed a tampered break-even factor")
	}

	// Traced results must deep-equal untraced ones; a tampered copy must not.
	tr := newTracer(&warm)
	root := tr.rec.start("job", -1, 0)
	got, err := tr.job(0, root, suite)
	tr.rec.end(root)
	if err != nil {
		t.Fatal(err)
	}
	want, err := warm.run(ctx, suite)
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(got, want) {
		t.Fatal("traced suite job differs from the harness result")
	}
	llc := *got.suite.Runs["LLC"]
	llc.SwappedCount++
	got.suite.Runs["LLC"] = &llc
	if sameResult(got, want) {
		t.Error("tampered traced result compared equal")
	}
}

func TestGateServedReports(t *testing.T) {
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	k := warmupKernel
	want := exp.Suite[suiteKey(k, serveScale)]
	w := server.WorkloadReport{Name: k, Slices: want.Slices, Classic: server.ClassicReport{
		EnergyNJ: want.Classic.EnergyNJ, TimeNS: want.Classic.TimeNS,
		Instrs: want.Classic.Instrs, Loads: want.Classic.Loads, Stores: want.Classic.Stores,
	}}
	for _, l := range []string{"Oracle", "LLC"} {
		p := want.Policies[l]
		w.Policies = append(w.Policies, server.PolicyReport{Label: l, EnergyNJ: p.EnergyNJ, TimeNS: p.TimeNS,
			RcmpFired: p.RcmpFired, RcmpTotal: p.RcmpTotal, Verified: p.Verified})
	}
	spec := server.JobSpec{Kind: server.KindSuite, Workloads: []string{k}, Scale: serveScale, Policies: []string{"Oracle", "LLC"}}
	ok := server.Report{Spec: spec, Suite: []server.WorkloadReport{w}}
	if err := exp.checkReport(spec, ok); err != nil {
		t.Fatalf("untampered report: %v", err)
	}
	bad := ok
	bad.Suite = []server.WorkloadReport{w}
	bad.Suite[0].Policies = append([]server.PolicyReport(nil), w.Policies...)
	bad.Suite[0].Policies[1].RcmpTotal++
	if exp.checkReport(spec, bad) == nil {
		t.Error("gate passed a report with a tampered RCMP count")
	}

	ck := server.JobSpec{Kind: server.KindCheckpoint, Workloads: []string{k}, Scale: serveScale}
	ck.CkptInterval = checkpointInterval(want.Classic.Instrs, 0)
	rows := append([]server.CheckpointRow(nil), exp.Checkpoint[checkpointKey(k, serveScale, ck.CkptInterval)]...)
	if err := exp.checkReport(ck, server.Report{Spec: ck, Checkpoint: rows}); err != nil {
		t.Fatalf("untampered checkpoint report: %v", err)
	}
	rows[0].RestartEnergyNJ *= 1 + 1e-6
	if exp.checkReport(ck, server.Report{Spec: ck, Checkpoint: rows}) == nil {
		t.Error("gate passed a tampered checkpoint row")
	}

	dt := server.JobSpec{Kind: server.KindDifftest, Seed: 5, Seeds: 20}
	pass := &server.DifftestReport{Seed: 5, Seeds: 20, Passed: 20}
	if err := exp.checkReport(dt, server.Report{Spec: dt, Difftest: pass}); err != nil {
		t.Fatalf("green difftest report: %v", err)
	}
	fail := &server.DifftestReport{Seed: 5, Seeds: 20, Passed: 19, Failed: 1}
	if exp.checkReport(dt, server.Report{Spec: dt, Difftest: fail}) == nil {
		t.Error("gate passed a difftest report with a divergence")
	}
}
