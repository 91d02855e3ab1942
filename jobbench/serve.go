package main

// The serve-mix workload: an open loop against an in-process amnesiacd
// (server.New with a temporary durable store, behind a loopback listener).
// Jobs are submitted without ?wait=1 and each is timed from its due time
// to the "finished" stamp of its job status.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/amnesiac-sim/amnesiac/internal/server"
)

const (
	// serveLimit is the latency limit of goodput_per_s.
	serveLimit = 2500 * time.Millisecond
	// pollEvery is how often a pending job's status is fetched. Latency
	// comes from the server's own stamps, so polling only delays the
	// report fetch.
	pollEvery = 50 * time.Millisecond
	// drainGrace bounds how long after its window the stream may take to
	// settle; jobs still pending then count as timed out.
	drainGrace = 60 * time.Second
)

// daemon is one in-process amnesiacd behind a loopback listener.
type daemon struct {
	srv      *server.Server
	hs       *http.Server
	serveErr chan error
	dir      string
	base     string
	tr       *http.Transport
	hc       *http.Client
}

// startDaemon starts a daemon whose durable store lives in a new
// directory under root, and a client holding at most one connection per
// CPU.
func startDaemon(root string) (*daemon, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, "store-")
	if err != nil {
		return nil, err
	}
	// One job per CPU, each simulating serially (amnesiacd -job-workers
	// nproc -workers 1): concurrent jobs never share a CPU, so a job's
	// latency does not hinge on which other jobs the arrivals overlap it
	// with. The closed loops measure parallelism within a job.
	srv, err := server.New(server.Config{StoreDir: dir, JobWorkers: runtime.NumCPU(), SimWorkers: 1})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	n := runtime.NumCPU()
	tr := &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n}
	d := &daemon{
		srv: srv, hs: &http.Server{Handler: srv.Handler()}, serveErr: make(chan error, 1),
		dir: dir, base: "http://" + ln.Addr().String(), tr: tr, hc: &http.Client{Transport: tr},
	}
	go func() { d.serveErr <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the listener, drains the job workers and removes the store.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.tr.CloseIdleConnections()
	_ = d.hs.Shutdown(ctx) // connections still open after the deadline are dropped
	<-d.serveErr
	_ = d.srv.Drain(ctx) // a second drain only reports that one ran
	os.RemoveAll(d.dir)
}

func (d *daemon) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// warm runs the set-up jobs: suite jobs with a single policy over every
// kernel at serveScale, one per job worker, which leave each kernel's
// prepared artifacts in the daemon's cache. Each spec names several
// kernels, so no stream submission repeats one.
func (d *daemon) warm(ctx context.Context, exp *expected) error {
	kernels := kernelNames()
	n := runtime.NumCPU()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		lo, hi := i*len(kernels)/n, (i+1)*len(kernels)/n
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = d.warmJob(ctx, exp, kernels[lo:hi])
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (d *daemon) warmJob(ctx context.Context, exp *expected, kernels []string) error {
	if len(kernels) == 0 {
		return nil
	}
	spec := server.JobSpec{Kind: server.KindSuite, Workloads: kernels, Scale: serveScale, Policies: []string{"Oracle"}}
	body, _ := json.Marshal(spec)
	code, data, err := d.do(ctx, http.MethodPost, "/v1/jobs?wait=1", body)
	if err != nil {
		return fmt.Errorf("set-up job: %w", err)
	}
	var st server.JobStatus
	if err := json.Unmarshal(data, &st); err != nil || code != http.StatusOK || st.State != server.StateDone {
		return fmt.Errorf("set-up job: HTTP %d: %s", code, data)
	}
	_, rep, err := d.report(ctx, st.ReportURL)
	if err != nil {
		return fmt.Errorf("set-up job: %w", err)
	}
	return exp.checkReport(spec, rep)
}

func (d *daemon) report(ctx context.Context, url string) ([]byte, server.Report, error) {
	var rep server.Report
	code, data, err := d.do(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, rep, err
	}
	if code != http.StatusOK {
		return nil, rep, fmt.Errorf("report: HTTP %d: %s", code, data)
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, rep, fmt.Errorf("report: %w", err)
	}
	return data, rep, nil
}

// storeGauges scrapes the durable store's size from /metrics.
func (d *daemon) storeGauges(ctx context.Context) (bytes, entries float64, err error) {
	code, data, err := d.do(ctx, http.MethodGet, "/metrics", nil)
	if err != nil || code != http.StatusOK {
		return 0, 0, fmt.Errorf("metrics: HTTP %d: %v", code, err)
	}
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		switch name {
		case "amnesiacd_store_bytes":
			bytes, err = strconv.ParseFloat(val, 64)
		case "amnesiacd_store_entries":
			entries, err = strconv.ParseFloat(val, 64)
		}
		if err != nil {
			return 0, 0, err
		}
	}
	return bytes, entries, nil
}

// served is the outcome of one submission. The client's times are local;
// created, started and finished are the server's stamps.
type served struct {
	id                       string
	due, submitted, answered time.Time // due time, POST sent, POST answered
	reportFrom, reportTo     time.Time // report GET
	created, started         time.Time
	finished                 time.Time
	hit, rejected            bool
	report                   []byte
	err                      error
	net                      float64 // share of the job's runnable time not stolen
}

func (r served) late() float64       { return r.submitted.Sub(r.due).Seconds() }
func (r served) submitRTT() float64  { return r.answered.Sub(r.submitted).Seconds() }
func (r served) reportRTT() float64  { return r.reportTo.Sub(r.reportFrom).Seconds() }
func (r served) latency() float64    { return r.finished.Sub(r.due).Seconds() }
func (r served) netLatency() float64 { return r.latency() * r.net }

// serveOutcome is one pass of the open loop.
type serveOutcome struct {
	jobs    []serveJob
	res     []served
	elapsed time.Duration // stream start to the last job's finish
	run     interval      // stream start to the last report
}

// openLoop submits each job at its due time and follows it to a terminal
// state, then fetches and gates its report. Each job's latency is netted
// of steal over its own interval. With rec non-nil it records each
// submission's spans.
func openLoop(ctx context.Context, d *daemon, jobs []serveJob, exp *expected, rec *recorder) serveOutcome {
	window := time.Duration(0)
	if len(jobs) > 0 {
		window = jobs[len(jobs)-1].At
	}
	ctx, cancel := context.WithTimeout(ctx, window+drainGrace)
	defer cancel()
	o := serveOutcome{jobs: jobs, res: make([]served, len(jobs))}
	clocks := startSampler(10 * time.Millisecond)
	m := readMark()
	t0 := m.wall
	var wg sync.WaitGroup
	for i, j := range jobs {
		due := t0.Add(j.At)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(i int, j serveJob, due time.Time) {
			defer wg.Done()
			o.res[i] = submitOne(ctx, d, j.Spec, due, exp)
			if rec != nil {
				recordServed(rec, i, o.res[i])
			}
		}(i, j, due)
	}
	wg.Wait()
	o.run = m.to(readMark())
	clocks.close()
	for i, r := range o.res {
		o.res[i].net = clocks.netFactor(r.due, r.finished)
		if r.err == nil && r.finished.Sub(t0) > o.elapsed {
			o.elapsed = r.finished.Sub(t0)
		}
	}
	return o
}

func terminal(state string) bool {
	switch state {
	case server.StateDone, server.StateFailed, server.StateTimeout, server.StateCanceled:
		return true
	}
	return false
}

func submitOne(ctx context.Context, d *daemon, spec server.JobSpec, due time.Time, exp *expected) served {
	r := served{due: due, submitted: time.Now()}
	body, _ := json.Marshal(spec)
	code, data, err := d.do(ctx, http.MethodPost, "/v1/jobs", body)
	r.answered = time.Now()
	switch {
	case err != nil:
		r.err = fmt.Errorf("submit: %w", err)
		return r
	case code == http.StatusTooManyRequests:
		r.rejected, r.err = true, errors.New("submit: refused with 429")
		return r
	case code != http.StatusOK && code != http.StatusAccepted:
		r.err = fmt.Errorf("submit: HTTP %d: %s", code, data)
		return r
	}
	var st server.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		r.err = fmt.Errorf("submit: %w", err)
		return r
	}
	r.id, r.hit = st.ID, st.CacheHit
	for !terminal(st.State) {
		select {
		case <-ctx.Done():
			r.err = fmt.Errorf("job %s still %s: %w", st.ID, st.State, ctx.Err())
			return r
		case <-time.After(pollEvery):
		}
		code, data, err := d.do(ctx, http.MethodGet, "/v1/jobs/"+st.ID, nil)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("HTTP %d: %s", code, data)
		}
		if err == nil {
			err = json.Unmarshal(data, &st)
		}
		if err != nil {
			r.err = fmt.Errorf("status of %s: %w", st.ID, err)
			return r
		}
	}
	r.created, _ = time.Parse(time.RFC3339Nano, st.Created)
	r.started, _ = time.Parse(time.RFC3339Nano, st.Started)
	r.finished, _ = time.Parse(time.RFC3339Nano, st.Finished)
	if st.State != server.StateDone {
		r.err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
		return r
	}
	r.reportFrom = time.Now()
	data, rep, err := d.report(ctx, st.ReportURL)
	r.reportTo = time.Now()
	if err == nil {
		err = exp.checkReport(spec, rep)
	}
	r.report, r.err = data, err
	return r
}

// recordServed turns one submission into spans: the job from its due time
// to its report, the HTTP round trips, and the server's queue wait and run
// from the job's stamps, clipped to the job.
func recordServed(rec *recorder, job int, r served) {
	end := maxTime(r.answered, r.finished)
	if r.report != nil {
		end = r.reportTo
	}
	root := rec.add("job", -1, job, r.due, end)
	rec.add("server.submit", root, job, r.submitted, r.answered)
	if !r.started.IsZero() {
		rec.add("server.queue_wait", root, job, maxTime(r.created, r.due), maxTime(r.started, r.due))
		rec.add("server.run", root, job, maxTime(r.started, r.due), maxTime(r.finished, r.due))
	}
	if r.report != nil {
		rec.add("server.report", root, job, r.reportFrom, r.reportTo)
	}
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// serveSummary condenses one pass for the metrics.
type serveSummary struct {
	lat, netLat               []float64 // completed submissions
	attempted, failed         int
	hits, coalesced, rejected int
	executed                  map[string][]served // first submission of each executed job, by kind
	seeds                     int                 // difftest seeds executed
	late, submit, report      []float64
}

func summarizeServe(o serveOutcome) serveSummary {
	s := serveSummary{attempted: len(o.res), executed: map[string][]served{}}
	seen := map[string]bool{}
	for i, r := range o.res {
		s.late = append(s.late, r.late())
		s.submit = append(s.submit, r.submitRTT())
		if r.rejected {
			s.rejected++
		}
		if r.err != nil {
			s.failed++
			fmt.Fprintf(os.Stderr, "jobbench: submission %d (%s): %v\n", i, o.jobs[i].Spec.Kind, r.err)
			continue
		}
		s.lat = append(s.lat, r.latency())
		s.netLat = append(s.netLat, r.netLatency())
		s.report = append(s.report, r.reportRTT())
		switch {
		case r.hit:
			s.hits++
		case seen[r.id]:
			s.coalesced++
		default:
			kind := o.jobs[i].Spec.Kind
			s.executed[kind] = append(s.executed[kind], r)
			if kind == server.KindDifftest {
				s.seeds += o.jobs[i].Spec.Seeds
			}
		}
		seen[r.id] = true
	}
	return s
}

// sameReports asserts that a traced pass served byte-identical reports.
func sameReports(untraced, traced serveOutcome) int {
	bad := 0
	for i := range traced.res {
		a, b := untraced.res[i], traced.res[i]
		if a.err == nil && b.err == nil && !bytes.Equal(a.report, b.report) {
			bad++
			fmt.Fprintf(os.Stderr, "jobbench: traced submission %d: report differs from the untraced one\n", i)
		}
	}
	return bad
}

// runKinds lists the job kinds with their own server.run_s split.
var runKinds = []string{server.KindSuite, server.KindBreakEven, server.KindCheckpoint, server.KindDifftest}
