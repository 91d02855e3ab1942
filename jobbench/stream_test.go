package main

import (
	"reflect"
	"testing"
	"time"

	"github.com/amnesiac-sim/amnesiac/internal/server"
)

func draw(seed int64, n, k int) []int {
	r := newRounds(seed, n)
	out := make([]int, k)
	for i := range out {
		out[i] = r.next()
	}
	return out
}

func TestRoundsAreSeededWholePermutations(t *testing.T) {
	n := len(closedItems("warm-sweep"))
	if n != 2*len(kernelNames()) || len(closedItems("cold-suite")) != len(kernelNames()) {
		t.Fatalf("round sizes: warm %d, cold %d", n, len(closedItems("cold-suite")))
	}
	a, b, c := draw(1, n, 3*n), draw(1, n, 3*n), draw(2, n, 3*n)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different streams")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same stream")
	}
	for r := 0; r < 3; r++ {
		seen := map[int]bool{}
		for _, i := range a[r*n : (r+1)*n] {
			seen[i] = true
		}
		if len(seen) != n {
			t.Errorf("round %d holds %d distinct items, want %d", r, len(seen), n)
		}
	}
}

func TestServeStreamIsSeededAndGated(t *testing.T) {
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	window := 20 * time.Second
	instrs := exp.classicInstrs(serveScale)
	a, b, c := serveStream(1, window, instrs), serveStream(1, window, instrs), serveStream(2, window, instrs)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different streams")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same stream")
	}
	for _, seed := range []int64{1, 2, 3} {
		jobs := serveStream(seed, window, instrs)
		fresh, repeats := map[string]bool{}, 0
		for i, j := range jobs {
			if i > 0 && j.At < jobs[i-1].At || j.At < 0 || j.At >= window {
				t.Fatalf("seed %d: arrival %d at %s out of order or window", seed, i, j.At)
			}
			spec, err := j.Spec.Normalize()
			if err != nil {
				t.Fatalf("seed %d: job %d: %v", seed, i, err)
			}
			key := spec.Key()
			if j.Repeat {
				repeats++
				if !fresh[key] {
					t.Errorf("seed %d: repeat %d has no earlier submission", seed, i)
				}
				continue
			}
			if fresh[key] {
				t.Errorf("seed %d: fresh submission %d repeats an earlier spec", seed, i)
			}
			fresh[key] = true
			for _, k := range spec.Workloads {
				var ok bool
				switch spec.Kind {
				case server.KindSuite:
					_, ok = exp.Suite[suiteKey(k, spec.Scale)]
				case server.KindBreakEven:
					_, ok = exp.BreakEven[breakEvenKey(k, spec.Scale, spec.MaxR)]
				case server.KindCheckpoint:
					_, ok = exp.Checkpoint[checkpointKey(k, spec.Scale, spec.CkptInterval)]
				}
				if !ok {
					t.Errorf("seed %d: no recorded values gate %s %s", seed, spec.Kind, k)
				}
			}
		}
		if frac := float64(repeats) / float64(len(jobs)); frac < 0.2 || frac > 0.3 {
			t.Errorf("seed %d: %d of %d submissions repeat (%.2f), want about a quarter", seed, repeats, len(jobs), frac)
		}
	}
}
