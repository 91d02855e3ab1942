package server

import (
	"context"
	"testing"
)

// TestPreparedImageReuse: the first job over a workload builds its sealed
// prepared image; a second job over the same workload — even of a
// different kind and policy subset — finds it resident and skips the
// prepare stage entirely.
func TestPreparedImageReuse(t *testing.T) {
	r := newRunner(2)
	emit := func(Event) {}
	suite, err := JobSpec{Kind: KindSuite, Workloads: []string{"is"}, Scale: 0.2, Policies: []string{"Compiler"}}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.run(context.Background(), suite, emit, nil); err != nil {
		t.Fatal(err)
	}
	ps := r.artifacts.Stats()
	if ps.Misses != 1 || ps.Hits != 0 || ps.Resident != 1 {
		t.Fatalf("after first job: %+v, want 1 miss, 0 hits, 1 entry", ps)
	}

	// Same workload and scale, different kind: still one prepared image.
	before := r.artifacts.Stats().Resident
	ckpt, err := JobSpec{Kind: KindCheckpoint, Workloads: []string{"is"}, Scale: 0.2}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.run(context.Background(), ckpt, emit, nil); err != nil {
		t.Fatal(err)
	}
	ps = r.artifacts.Stats()
	if ps.Misses != 1 || ps.Hits != 1 || ps.Resident != 1 {
		t.Fatalf("after second job: %+v, want 1 miss, 1 hit, 1 entry", ps)
	}
	if after := r.artifacts.Stats().Resident; after != before {
		t.Fatalf("second job grew the artifact cache %d -> %d: prepare ran again", before, after)
	}

	// A different scale is a different image.
	other, err := JobSpec{Kind: KindSuite, Workloads: []string{"is"}, Scale: 0.25, Policies: []string{"Compiler"}}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.run(context.Background(), other, emit, nil); err != nil {
		t.Fatal(err)
	}
	ps = r.artifacts.Stats()
	if ps.Misses != 2 || ps.Resident != 2 {
		t.Fatalf("after rescaled job: %+v, want 2 misses, 2 entries", ps)
	}
}
