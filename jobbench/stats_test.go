package main

import "testing"

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{1, 50, false}, {19, 50, false}, {20, 50, true}, {22, 50, true}, {37, 50, true},
		{38, 75, true}, {91, 75, true}, {92, 90, true}, {168, 90, true}, {181, 90, true},
		{182, 95, true}, {901, 95, true}, {902, 99, true}, {9002, 99.9, true},
	} {
		q, ok := tailPercentile(c.n)
		if q != c.q || ok != c.ok {
			t.Errorf("tailPercentile(%d) = p%g, %v; want p%g, %v", c.n, q, ok, c.q, c.ok)
		}
		if ok && beyond(c.n, q) < minBeyond {
			t.Errorf("n=%d: p%g has only %d samples beyond", c.n, q, beyond(c.n, q))
		}
	}
}

func TestSummarizeInterpolates(t *testing.T) {
	lat := make([]float64, 100)
	for i := range lat {
		lat[len(lat)-1-i] = float64(i + 1) // unsorted input
	}
	s := summarize(lat)
	if s.N != 100 || s.P50 != 50.5 || s.TailQ != 90 || !s.TailOK || !closeTo(s.Tail, 90.1) {
		t.Fatalf("summarize(1..100) = %+v; want n=100 p50=50.5 tail p90=90.1", s)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %g, want 0", got)
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio(1, 0) = %g, want 0", got)
	}
}
