package main

import (
	"errors"
	"strings"

	"github.com/amnesiac-sim/amnesiac/internal/cliutil"
)

// validateFlags rejects nonsensical flag values up front via the shared
// cliutil checks, so every binary reports identical diagnostics.
func validateFlags(scale float64, workers int, maxInstrs int64, ckpt bool, ckptInterval uint64) error {
	var ckptErr error
	if ckptInterval != 0 && !ckpt {
		ckptErr = errors.New("amnesiac: -ckpt-interval requires -ckpt")
	}
	return cliutil.All(
		cliutil.Scale("amnesiac", scale),
		cliutil.Workers("amnesiac", workers),
		cliutil.MaxInstrs("amnesiac", maxInstrs),
		ckptErr,
	)
}

// policyList splits the -policies flag into its trimmed labels, the
// policies both local and remote runs simulate and print.
func policyList(s string) []string {
	var labels []string
	for _, p := range strings.Split(s, ",") {
		labels = append(labels, strings.TrimSpace(p))
	}
	return labels
}
