// Prepared-image persistence. The daemon's one record of which prepared
// images are resident — the sealed copy-on-write memory image and the
// other prepare-stage products that every job over a workload forks from
// — is the runner's harness.ArtifactCache: /metrics reports its lookups
// as amnesiacd_prepared_image_{hits,misses}_total and its resident count
// as amnesiacd_prepared_images. With a durable store, the daemon writes
// the resident set to a manifest whenever it grew, and a restarted daemon
// re-warms those images in the background.
package server

import (
	"encoding/json"

	"github.com/amnesiac-sim/amnesiac/internal/workloads"
)

// preparedMeta is one manifest entry: enough to rebuild a prepared image
// after a restart (the sealed images themselves are memory-only).
type preparedMeta struct {
	Workload  string  `json:"workload"`
	Scale     float64 `json:"scale"`
	MaxInstrs uint64  `json:"max_instrs"`
}

// preparedManifestName is the aux file in the durable store holding the
// prepared-image manifest.
const preparedManifestName = "prepared.json"

// persistPrepared writes the prepared-image manifest to the durable store
// when the resident set grew since the last write. Called after each
// completed job; the set only grows, and a lost write merely costs a
// rebuild after the next restart.
func (s *Server) persistPrepared() {
	if s.store == nil {
		return
	}
	s.prepMu.Lock()
	defer s.prepMu.Unlock()
	resident := s.runner.artifacts.Resident()
	if len(resident) <= s.persisted {
		return
	}
	man := make([]preparedMeta, len(resident))
	for i, k := range resident {
		man[i] = preparedMeta(k)
	}
	data, err := json.Marshal(man)
	if err == nil {
		err = s.store.PutAux(preparedManifestName, data)
	}
	if err != nil {
		s.log.Printf("amnesiacd: persist prepared manifest: %v", err)
		return
	}
	s.persisted = len(resident)
}

// restorePrepared re-warms the prepared images recorded by a previous
// process, one after another in a background goroutine: serving starts
// immediately, and the first jobs either find their images resident or
// wait on the build in flight through the artifact cache's singleflight.
// Shutdown stops the re-warm after the build in flight, and Drain waits
// for it.
func (s *Server) restorePrepared() {
	data, ok := s.store.GetAux(preparedManifestName)
	if !ok {
		return
	}
	var man []preparedMeta
	if err := json.Unmarshal(data, &man); err != nil {
		s.log.Printf("amnesiacd: prepared manifest unreadable, skipping re-warm: %v", err)
		return
	}
	s.rewarmWG.Add(1)
	go func() {
		defer s.rewarmWG.Done()
		for _, m := range man {
			if s.baseCtx.Err() != nil {
				return
			}
			w, err := workloads.Get(m.Workload)
			if err == nil {
				_, err = s.runner.artifacts.Get(s.runner.config(JobSpec{Scale: m.Scale, MaxInstrs: m.MaxInstrs}), w)
			}
			if err != nil {
				s.log.Printf("amnesiacd: re-warm prepared image %s: %v", m.Workload, err)
			}
		}
		s.log.Printf("amnesiacd: re-warmed %d prepared image(s) from the durable store", len(man))
	}()
}
