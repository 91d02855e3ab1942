// Package cliutil centralizes flag validation shared by the repo's
// binaries (amnesiac, experiments, amnesiacd). Each check rejects a
// nonsensical value up front with an actionable message prefixed by the
// program name, instead of letting a negative worker count or instruction
// budget surface later as a hang or a wrapped-around uint64.
package cliutil

import (
	"fmt"
	"math"
	"net/url"
	"strings"
)

// Scale validates a -scale workload scale factor. NaN fails every
// comparison, so the check is written to reject it, and ±Inf with it.
func Scale(prog string, v float64) error {
	if !(v > 0) || math.IsInf(v, 0) {
		return fmt.Errorf("%s: -scale must be positive and finite, got %g", prog, v)
	}
	return nil
}

// Workers validates a -workers pool size (0 = GOMAXPROCS).
func Workers(prog string, v int) error {
	if v < 0 {
		return fmt.Errorf("%s: -workers must be >= 0 (0 = GOMAXPROCS), got %d", prog, v)
	}
	return nil
}

// MaxInstrs validates a -maxinstrs dynamic instruction budget (0 = default).
func MaxInstrs(prog string, v int64) error {
	if v < 0 {
		return fmt.Errorf("%s: -maxinstrs must be >= 0 (0 = default budget), got %d", prog, v)
	}
	return nil
}

// Positive validates an arbitrary flag that must be >= 1 (queue sizes,
// cache capacities, pool widths).
func Positive(prog, flagName string, v int) error {
	if v < 1 {
		return fmt.Errorf("%s: %s must be positive, got %d", prog, flagName, v)
	}
	return nil
}

// MaxR validates a -maxr break-even sweep bound (the sweep starts at
// Rdefault, so the bound must exceed 1). NaN and +Inf are rejected too.
func MaxR(prog string, v float64) error {
	if !(v > 1) || math.IsInf(v, 0) {
		return fmt.Errorf("%s: -maxr must exceed 1 and be finite (the sweep starts at Rdefault), got %g", prog, v)
	}
	return nil
}

// Bytes validates a byte-size flag that must be >= 1 (store bounds).
func Bytes(prog, flagName string, v int64) error {
	if v < 1 {
		return fmt.Errorf("%s: %s must be positive, got %d", prog, flagName, v)
	}
	return nil
}

// BaseURL validates a replica base URL flag: http or https, a host, and
// no query or fragment. Empty is allowed — absent flags are gated by the
// caller (e.g. -advertise is only required alongside -peers).
func BaseURL(prog, flagName, v string) error {
	if v == "" {
		return nil
	}
	u, err := url.Parse(strings.TrimSpace(v))
	if err != nil {
		return fmt.Errorf("%s: %s: %v", prog, flagName, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return fmt.Errorf("%s: %s must use http or https, got %q", prog, flagName, v)
	}
	if u.Host == "" {
		return fmt.Errorf("%s: %s is missing a host: %q", prog, flagName, v)
	}
	if u.RawQuery != "" || u.Fragment != "" {
		return fmt.Errorf("%s: %s must be a bare base URL, got %q", prog, flagName, v)
	}
	return nil
}

// BaseURLs splits a comma-separated replica list, validates every entry
// with BaseURL, and returns the trimmed URLs. Empty input yields nil.
func BaseURLs(prog, flagName, csv string) ([]string, error) {
	var out []string
	for _, raw := range strings.Split(csv, ",") {
		u := strings.TrimSpace(raw)
		if u == "" {
			continue
		}
		if err := BaseURL(prog, flagName, u); err != nil {
			return nil, err
		}
		out = append(out, u)
	}
	return out, nil
}

// All returns the first non-nil error, so binaries can chain checks.
func All(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
