// Multi-replica serving (key-owner routing) and batch submission.
//
// Routing: every job key has one ring owner (internal/cluster). A replica
// receiving a submission for a key it does not own proxies the request to
// the owner, so repeated submissions of a key always land on the replica
// whose result cache and prepared images are warm for it. The
// X-Amnesiac-Forwarded header breaks proxy loops (a forwarded request is
// always handled locally), and any proxy failure falls back to local
// execution — a dead owner degrades throughput for its key range, never
// availability.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"github.com/amnesiac-sim/amnesiac/internal/cluster"
)

// forwardedHeader marks a replica-to-replica request; its value is the
// sender's advertised URL. Forwarded requests are never proxied again.
const forwardedHeader = "X-Amnesiac-Forwarded"

// maxBatchBodyBytes bounds a batch submission body.
const maxBatchBodyBytes = 8 << 20

// --- owner routing ---

// proxyToOwner forwards the submission to the key's ring owner when that
// is a different, usable replica and no local cache tier holds the
// report. It reports true when it wrote the response; false means the
// caller must handle the submission locally (including every failure
// path — proxying degrades to local execution, never to an error).
func (s *Server) proxyToOwner(w http.ResponseWriter, r *http.Request, spec JobSpec) bool {
	if !s.cluster.Enabled() || r.Header.Get(forwardedHeader) != "" {
		return false
	}
	key := spec.Key()
	owner, self := s.cluster.Owner(key)
	if self || !s.cluster.Usable(owner) {
		return false
	}
	if _, ok := s.cache.peek(key); ok {
		return false // answer from the local cache instead of the network
	}

	body, err := json.Marshal(spec)
	if err != nil {
		return false
	}
	// A waiting submission is bounded only by the client's patience; other
	// submissions are control-plane sized.
	ctx := r.Context()
	wait := r.URL.Query().Get("wait")
	if wait != "1" && wait != "true" {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cluster.ProbeTimeout)
		defer cancel()
	}
	url := owner + "/v1/jobs"
	if wait != "" {
		url += "?wait=" + wait
	}
	resp, err := s.peerPost(ctx, owner, url, body)
	if err != nil {
		s.log.Printf("amnesiacd: proxy to %s failed, executing locally: %v", owner, err)
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests {
		// The owner is unhealthy or shedding load; our queue may have room.
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxBodyBytes))
		return false
	}
	s.met.proxied.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Amnesiac-Proxied-To", owner)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return true
}

// proxyReport fetches a report from the key's ring owner after a local
// miss. True when it wrote the response.
func (s *Server) proxyReport(w http.ResponseWriter, r *http.Request, key string) bool {
	if !s.cluster.Enabled() || r.Header.Get(forwardedHeader) != "" {
		return false
	}
	owner, self := s.cluster.Owner(key)
	if self || !s.cluster.Usable(owner) {
		return false
	}
	ctx, cancel := context.WithTimeout(r.Context(), cluster.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, owner+"/v1/reports/"+key, nil)
	if err != nil {
		return false
	}
	req.Header.Set(forwardedHeader, s.cluster.Self())
	resp, err := s.cluster.Client().Do(req)
	if err != nil {
		s.cluster.ReportFailure(owner)
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxBodyBytes))
		return false
	}
	s.cluster.ReportSuccess(owner)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Amnesiac-Report-Key", key)
	io.Copy(w, resp.Body)
	return true
}

// peerPost issues a replica-to-replica POST with the forwarded marker and
// records the peer's health from the outcome.
func (s *Server) peerPost(ctx context.Context, peer, url string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(forwardedHeader, s.cluster.Self())
	resp, err := s.cluster.Client().Do(req)
	if err != nil {
		s.cluster.ReportFailure(peer)
		return nil, err
	}
	if resp.StatusCode >= 500 {
		s.cluster.ReportFailure(peer)
	} else {
		s.cluster.ReportSuccess(peer)
	}
	return resp, nil
}

// --- batch submission ---

// BatchRequest is the body of POST /v1/jobs/batch.
type BatchRequest struct {
	Specs []JobSpec `json:"specs"`
}

// BatchEntry is one spec's outcome within a batch response.
type BatchEntry struct {
	Job   *JobStatus `json:"job,omitempty"`
	Error string     `json:"error,omitempty"`
	Code  int        `json:"code"`
}

// BatchResponse mirrors the request order.
type BatchResponse struct {
	Jobs []BatchEntry `json:"jobs"`
}

// handleBatch submits many specs at once. All specs are normalized up
// front, so one bad spec rejects the whole batch. Jobs over a shared
// workload still prepare it once, through the artifact cache's
// singleflight. Per-spec failures (backpressure, draining) are reported
// per entry, not for the batch.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBatchBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid batch: "+err.Error())
		return
	}
	if len(req.Specs) == 0 {
		writeError(w, http.StatusBadRequest, "batch has no specs")
		return
	}
	specs := make([]JobSpec, len(req.Specs))
	for i, raw := range req.Specs {
		spec, err := raw.Normalize()
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("spec %d: %v", i, err))
			return
		}
		specs[i] = spec
	}

	resp := BatchResponse{Jobs: make([]BatchEntry, len(specs))}
	for i, spec := range specs {
		res, err := s.submit(spec)
		switch {
		case errors.Is(err, errDraining):
			resp.Jobs[i] = BatchEntry{Error: err.Error(), Code: http.StatusServiceUnavailable}
		case errors.Is(err, errQueueFull):
			resp.Jobs[i] = BatchEntry{Error: err.Error(), Code: http.StatusTooManyRequests}
		case err != nil:
			resp.Jobs[i] = BatchEntry{Error: err.Error(), Code: http.StatusInternalServerError}
		default:
			st := res.status
			resp.Jobs[i] = BatchEntry{Job: &st, Code: res.code}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
