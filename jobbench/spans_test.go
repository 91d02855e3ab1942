package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestUnionLenCountsOverlapOnce(t *testing.T) {
	ivs := [][2]int64{{0, 10}, {5, 15}, {20, 25}, {24, 24}}
	for _, c := range []struct{ lo, hi, want int64 }{
		{0, 30, 20}, // [0,15) and [20,25)
		{8, 22, 9},  // [8,15) and [20,22)
		{15, 20, 0},
		{-5, 100, 20},
	} {
		if got := unionLen(ivs, c.lo, c.hi); got != c.want {
			t.Errorf("unionLen(%d, %d) = %d, want %d", c.lo, c.hi, got, c.want)
		}
	}
}

// A root with two overlapping children (parallel policy runs), one of
// which has a child of its own: self time subtracts the union of the
// children, never their sum.
func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "job", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "harness.policy", Start: 10, End: 60},
		{ID: 2, Parent: 0, Name: "harness.policy", Start: 40, End: 90},
		{ID: 3, Parent: 1, Name: "amnesic.run", Start: 20, End: 30},
	}
	a := analyze(spans)
	want := map[string]float64{"job": 20e-9, "harness": (40 + 50) * 1e-9, "amnesic": 10e-9}
	for layer, w := range want {
		if got := a.Self[layer]; !closeTo(got, w) {
			t.Errorf("self[%s] = %g, want %g", layer, got, w)
		}
	}
	if got := a.coverage(); !closeTo(got, 0.8) {
		t.Errorf("coverage = %g, want 0.8", got)
	}
	if got := a.Busy["harness.policy"]; !closeTo(got, 100e-9) {
		t.Errorf("busy[harness.policy] = %g, want 1e-7", got)
	}
	if got := a.selfShare("amnesic"); !closeTo(got, 10.0/120) {
		t.Errorf("selfShare(amnesic) = %g, want %g", got, 10.0/120)
	}
}

func TestRecorderInheritsStageAndExports(t *testing.T) {
	r := newRecorder()
	root := r.start("job", -1, 7)
	p := r.start("harness.policy", root, 7)
	f := r.add("mem.fork", p, 7, time.Now(), time.Now())
	r.end(p)
	r.end(root)
	spans := r.snapshot()
	if spans[f].Stage != "policy" || spans[root].Stage != "job" {
		t.Fatalf("stages = %q, %q; want policy, job", spans[f].Stage, spans[root].Stage)
	}
	path := filepath.Join(t.TempDir(), "spans", "x.jsonl")
	if err := r.write(path); err != nil {
		t.Fatal(err)
	}
	fh, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	n := 0
	for ; sc.Scan(); n++ {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		if s != spans[n] {
			t.Errorf("exported span %d = %+v, want %+v", n, s, spans[n])
		}
	}
	if n != len(spans) {
		t.Errorf("exported %d spans, want %d", n, len(spans))
	}
}
