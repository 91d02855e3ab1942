package main

import "sort"

// tailGrid is the set of percentiles a tail is chosen from. A tail must
// have at least minBeyond samples ranked above it, so that one slow job
// cannot set it on its own.
var tailGrid = []float64{50, 75, 90, 95, 99, 99.9}

const minBeyond = 10

// percentile is the q-th percentile of sorted, interpolated linearly
// between the two nearest ranks (the usual definition, so that the 50th is
// the median).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	h := float64(len(sorted)-1) * q / 100
	i := int(h)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (h-float64(i))*(sorted[i+1]-sorted[i])
}

// beyond is how many of n samples rank above the q-th percentile.
func beyond(n int, q float64) int {
	return n - 1 - int(float64(n-1)*q/100)
}

// tailPercentile returns the highest grid percentile that has at least
// minBeyond of n samples ranked above it. ok is false when not even the
// median has; the caller then reports the median and says so.
func tailPercentile(n int) (q float64, ok bool) {
	q = 50
	for _, g := range tailGrid {
		if beyond(n, g) >= minBeyond {
			q, ok = g, true
		}
	}
	return q, ok
}

// latencySummary is the median and the tail of one set of job latencies.
type latencySummary struct {
	N      int
	P50    float64
	TailQ  float64 // percentile the tail was taken at
	TailOK bool    // false: fewer than minBeyond samples beyond TailQ
	Tail   float64
}

func summarize(lat []float64) latencySummary {
	s := append([]float64(nil), lat...)
	sort.Float64s(s)
	q, ok := tailPercentile(len(s))
	return latencySummary{N: len(s), P50: percentile(s, 50), TailQ: q, TailOK: ok, Tail: percentile(s, q)}
}

// median is the median of xs (0 for none).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
