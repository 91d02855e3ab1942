package main

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"github.com/amnesiac-sim/amnesiac/internal/harness"
	"github.com/amnesiac-sim/amnesiac/internal/workloads"
)

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name         string
		scale        float64
		workers      int
		maxInstrs    int64
		ckpt         bool
		ckptInterval uint64
		wantErr      string
	}{
		{"defaults", 1.0, 0, 0, false, 0, ""},
		{"explicit", 0.5, 4, 1_000_000, false, 0, ""},
		{"ckpt with interval", 1.0, 0, 0, true, 5000, ""},
		{"ckpt derived interval", 1.0, 0, 0, true, 0, ""},
		{"zero scale", 0, 0, 0, false, 0, "-scale must be positive"},
		{"negative scale", -1, 0, 0, false, 0, "-scale must be positive"},
		{"negative workers", 1.0, -2, 0, false, 0, "-workers must be >= 0"},
		{"negative budget", 1.0, 0, -5, false, 0, "-maxinstrs must be >= 0"},
		{"interval without ckpt", 1.0, 0, 0, false, 5000, "-ckpt-interval requires -ckpt"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.scale, tc.workers, tc.maxInstrs, tc.ckpt, tc.ckptInterval)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("got %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestPoliciesFlag: -policies is the set of policies a local run
// simulates, not only the rows it prints. The listed labels run after one
// prepare and print in flag order; an unknown label fails before any
// prepare work.
func TestPoliciesFlag(t *testing.T) {
	w, err := workloads.Get("is")
	if err != nil {
		t.Fatal(err)
	}
	cfg := harness.DefaultConfig()
	cfg.Scale = 0.05
	cfg.Workers = 1 // one worker reports stages in execution order
	var stages []string
	cfg.Progress = func(p harness.Progress) { stages = append(stages, p.Stage) }

	var out bytes.Buffer
	if err := runLocal(&out, cfg, w, policyList(" FLC, Compiler"), false); err != nil {
		t.Fatal(err)
	}
	if want := []string{"prepare", "FLC", "Compiler"}; !reflect.DeepEqual(stages, want) {
		t.Errorf("stages run = %q, want %q", stages, want)
	}
	var rows []string
	for _, line := range strings.Split(out.String(), "\n") {
		for _, label := range harness.PolicyLabels {
			if strings.HasPrefix(line, label+" ") {
				rows = append(rows, label)
			}
		}
	}
	if want := []string{"FLC", "Compiler"}; !reflect.DeepEqual(rows, want) {
		t.Errorf("printed rows = %q, want %q:\n%s", rows, want, out.String())
	}

	stages, out = nil, bytes.Buffer{}
	err = runLocal(&out, cfg, w, policyList("C-Oracle,Bogus"), false)
	if err == nil || !strings.Contains(err.Error(), `unknown policy "Bogus"`) {
		t.Fatalf("runLocal = %v, want an unknown-policy error", err)
	}
	if len(stages) != 0 || out.Len() != 0 {
		t.Errorf("unknown label still ran stages %q and printed %q", stages, out.String())
	}
}
