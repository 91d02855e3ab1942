package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one call into a layer, recorded by the benchmark around a public
// entry point. Spans of one job share Job; a job's root has Parent -1.
// Stage uses the stage vocabulary of the job pipeline: build, profile,
// compile, classic, policy, report, cache and store, plus prepare (the
// harness's composite of build through classic), queue and run for the
// server's own intervals, and job for roots.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Job    int    `json:"job"`
	Name   string `json:"name"`
	Stage  string `json:"stage"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

// layer is the span name's prefix: "compiler" for "compiler.compile".
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

func (s span) dur() int64 { return s.End - s.Start }

// stageOf names the pipeline stage of a span name; "" inherits the
// parent's stage (mem.fork serves both the classic and the policy stage).
var stageOf = map[string]string{
	"job":                  "job",
	"harness.prepare":      "prepare",
	"harness.policy_stage": "policy",
	"harness.policy":       "policy",
	"harness.breakeven":    "policy",
	"workloads.build":      "build",
	"profile.collect":      "profile",
	"compiler.compile":     "compile",
	"mem.seal":             "classic",
	"mem.fork":             "",
	"cpu.run":              "classic",
	"amnesic.new":          "policy",
	"amnesic.run":          "policy",
	"server.submit":        "cache",
	"server.queue_wait":    "queue",
	"server.run":           "run",
	"server.report":        "report",
}

// recorder keeps spans in memory; write exports them once at exit.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// start opens a span under parent (-1 for a job root) and returns its id.
func (r *recorder) start(name string, parent, job int) int {
	return r.add(name, parent, job, time.Now(), time.Time{})
}

// end closes span id.
func (r *recorder) end(id int) {
	t := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = t
	r.mu.Unlock()
}

// add records a span whose bounds are known; a zero end leaves it open.
func (r *recorder) add(name string, parent, job int, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := stageOf[name]
	if !ok {
		panic("jobbench: span name without a stage entry: " + name)
	}
	if st == "" && parent >= 0 {
		st = r.spans[parent].Stage
	}
	s := span{ID: len(r.spans), Parent: parent, Job: job, Name: name, Stage: st, Start: start.Sub(r.epoch).Nanoseconds()}
	if !end.IsZero() {
		s.End = end.Sub(r.epoch).Nanoseconds()
	}
	r.spans = append(r.spans, s)
	return s.ID
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write exports the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// unionLen is the length of the union of the intervals ivs clipped to
// [lo, hi). Overlapping intervals — parallel child spans — count once.
func unionLen(ivs [][2]int64, lo, hi int64) int64 {
	c := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			c = append(c, [2]int64{a, b})
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i][0] < c[j][0] })
	var total, curA, curB int64
	open := false
	for _, iv := range c {
		switch {
		case !open:
			curA, curB, open = iv[0], iv[1], true
		case iv[0] <= curB:
			curB = max(curB, iv[1])
		default:
			total += curB - curA
			curA, curB = iv[0], iv[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// spanAnalysis is the layer split of one traced run.
type spanAnalysis struct {
	// Self is the self time per layer in seconds: each span's duration
	// minus the part of it its children cover, summed by layer. "job" is
	// the root's uncovered time.
	Self map[string]float64
	// Busy is the summed duration per span name, in seconds.
	Busy map[string]float64
	// JobTime is the summed root duration; Covered the part of it the
	// roots' children cover.
	JobTime, Covered float64
	Jobs             int
}

func analyze(spans []span) spanAnalysis {
	a := spanAnalysis{Self: map[string]float64{}, Busy: map[string]float64{}}
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for _, s := range spans {
		covered := unionLen(children[s.ID], s.Start, s.End)
		a.Self[s.layer()] += float64(s.dur()-covered) / 1e9
		a.Busy[s.Name] += float64(s.dur()) / 1e9
		if s.Parent < 0 {
			a.Jobs++
			a.JobTime += float64(s.dur()) / 1e9
			a.Covered += float64(covered) / 1e9
		}
	}
	return a
}

// selfShare is a layer's share of all self time.
func (a spanAnalysis) selfShare(layer string) float64 {
	var total float64
	for _, v := range a.Self {
		total += v
	}
	return ratio(a.Self[layer], total)
}

// coverage is the share of job time that layer spans cover.
func (a spanAnalysis) coverage() float64 { return ratio(a.Covered, a.JobTime) }

// perJob is a summed quantity averaged over the traced jobs.
func (a spanAnalysis) perJob(v float64) float64 { return ratio(v, float64(a.Jobs)) }

func (a spanAnalysis) String() string {
	return fmt.Sprintf("%d jobs, %.3f s job time, %.1f%% covered by layer spans", a.Jobs, a.JobTime, 100*a.coverage())
}
