package main

// Wall time net of hypervisor steal. On a shared virtual machine the host
// runs other guests on this guest's CPUs, and Linux counts that time as
// "steal" in /proc/stat. A job that loses part of its runnable time to
// steal takes longer through no fault of the program, and the share moves
// from run to run with the neighbours' load (5-21% within two minutes on a
// shared 2-vCPU guest). The end-to-end metrics
// therefore use wall time net of steal: an interval of wall time W in
// which the process ran for C CPU-seconds while S CPU-seconds were stolen
// counts as W·C/(C+S), the time it would have taken had the stolen share
// of its runnable time been its own. Where the kernel reports no steal, S
// is 0 and this is plain wall time. It assumes the benchmark is the only
// busy process in its machine, so that all steal falls on its threads.

import (
	"bytes"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// userHZ is the unit of /proc/stat's counters; Linux fixes it at 100 for
// user space on every architecture this program builds for.
const userHZ = 100

// mark is one reading of the three clocks.
type mark struct {
	wall  time.Time
	cpu   float64 // process user+system CPU seconds, all threads
	steal float64 // host steal seconds over all CPUs
}

func readMark() mark {
	m := mark{wall: time.Now(), steal: stealSeconds()}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		m.cpu = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
	}
	return m
}

// stealSeconds reads the steal column of /proc/stat's aggregate line; 0
// where the file or the column is missing.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0
	}
	v, err := strconv.ParseFloat(string(f[8]), 64)
	if err != nil {
		return 0
	}
	return v / userHZ
}

// resetPeakRSS collects garbage, returns freed memory to the system and
// resets the kernel's resident high-water mark to the current resident
// size, so that peakRSSMB covers only what runs after it. Where the reset
// is refused, the mark keeps covering the whole process.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort; see above
}

// peakRSSMB is the resident high-water mark in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// interval is the span between two marks.
type interval struct {
	wall, cpu, steal float64
}

func (a mark) to(b mark) interval {
	return interval{wall: b.wall.Sub(a.wall).Seconds(), cpu: b.cpu - a.cpu, steal: max(0, b.steal-a.steal)}
}

// netFactor is the share of the process's runnable time that was not
// stolen: C/(C+S), or 1 when nothing ran.
func (iv interval) netFactor() float64 {
	if iv.cpu+iv.steal <= 0 {
		return 1
	}
	return iv.cpu / (iv.cpu + iv.steal)
}

// net is the interval's wall time net of steal.
func (iv interval) net() float64 { return iv.wall * iv.netFactor() }

// sampler reads the clocks every period until closed, so that any interval
// within its lifetime can be netted of steal, also while intervals overlap.
type sampler struct {
	mu    sync.Mutex
	marks []mark
	stop  chan struct{}
	done  chan struct{}
}

func startSampler(period time.Duration) *sampler {
	s := &sampler{marks: []mark{readMark()}, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				s.add(readMark())
				return
			case <-t.C:
				s.add(readMark())
			}
		}
	}()
	return s
}

func (s *sampler) add(m mark) {
	s.mu.Lock()
	s.marks = append(s.marks, m)
	s.mu.Unlock()
}

// close stops the sampler and waits for it.
func (s *sampler) close() {
	close(s.stop)
	<-s.done
}

// netFactor nets the interval [a, b] over the marks that enclose it.
func (s *sampler) netFactor(a, b time.Time) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.marks
	i := sort.Search(len(m), func(i int) bool { return m[i].wall.After(a) }) - 1
	j := sort.Search(len(m), func(i int) bool { return !m[i].wall.Before(b) })
	i, j = max(i, 0), min(j, len(m)-1)
	return m[i].to(m[j]).netFactor()
}
