package cliutil

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func wantErr(t *testing.T, err error, substr string) {
	t.Helper()
	if substr == "" {
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		return
	}
	if err == nil || !strings.Contains(err.Error(), substr) {
		t.Fatalf("got %v, want error containing %q", err, substr)
	}
}

func TestScale(t *testing.T) {
	wantErr(t, Scale("p", 1.0), "")
	wantErr(t, Scale("p", 0.01), "")
	wantErr(t, Scale("p", 0), "p: -scale must be positive")
	wantErr(t, Scale("prog", -1), "prog: -scale must be positive")
	wantErr(t, Scale("p", math.NaN()), "p: -scale must be positive and finite, got NaN")
	wantErr(t, Scale("p", math.Inf(1)), "p: -scale must be positive and finite, got +Inf")
	wantErr(t, Scale("p", math.Inf(-1)), "p: -scale must be positive and finite, got -Inf")
}

func TestWorkers(t *testing.T) {
	wantErr(t, Workers("p", 0), "")
	wantErr(t, Workers("p", 8), "")
	wantErr(t, Workers("p", -2), "p: -workers must be >= 0")
}

func TestMaxInstrs(t *testing.T) {
	wantErr(t, MaxInstrs("p", 0), "")
	wantErr(t, MaxInstrs("p", 1_000_000), "")
	wantErr(t, MaxInstrs("p", -5), "p: -maxinstrs must be >= 0")
}

func TestPositive(t *testing.T) {
	wantErr(t, Positive("p", "-queue", 64), "")
	wantErr(t, Positive("p", "-queue", 0), "p: -queue must be positive")
	wantErr(t, Positive("p", "-cache", -1), "p: -cache must be positive")
}

func TestMaxR(t *testing.T) {
	wantErr(t, MaxR("p", 200), "")
	wantErr(t, MaxR("p", 1), "p: -maxr must exceed 1")
	wantErr(t, MaxR("p", -3), "p: -maxr must exceed 1")
	wantErr(t, MaxR("p", math.NaN()), "p: -maxr must exceed 1 and be finite (the sweep starts at Rdefault), got NaN")
	wantErr(t, MaxR("p", math.Inf(1)), "p: -maxr must exceed 1 and be finite (the sweep starts at Rdefault), got +Inf")
	wantErr(t, MaxR("p", math.Inf(-1)), "p: -maxr must exceed 1 and be finite (the sweep starts at Rdefault), got -Inf")
}

func TestBytes(t *testing.T) {
	wantErr(t, Bytes("p", "-store-max-bytes", 1), "")
	wantErr(t, Bytes("p", "-store-max-bytes", 256<<20), "")
	wantErr(t, Bytes("p", "-store-max-bytes", 0), "p: -store-max-bytes must be positive")
	wantErr(t, Bytes("p", "-store-max-bytes", -1), "p: -store-max-bytes must be positive")
}

func TestBaseURL(t *testing.T) {
	wantErr(t, BaseURL("p", "-advertise", ""), "") // absent is the caller's problem
	wantErr(t, BaseURL("p", "-advertise", "http://10.0.0.1:8080"), "")
	wantErr(t, BaseURL("p", "-advertise", "https://replica.example/base"), "")
	wantErr(t, BaseURL("p", "-advertise", "ftp://a"), "p: -advertise must use http or https")
	wantErr(t, BaseURL("p", "-advertise", "http://"), "missing a host")
	wantErr(t, BaseURL("p", "-advertise", "http://a?x=1"), "bare base URL")
}

func TestBaseURLs(t *testing.T) {
	got, err := BaseURLs("p", "-peers", " http://a:1, http://b:2 ,")
	if err != nil || len(got) != 2 || got[0] != "http://a:1" || got[1] != "http://b:2" {
		t.Fatalf("BaseURLs = %v, %v", got, err)
	}
	if got, err := BaseURLs("p", "-peers", ""); err != nil || got != nil {
		t.Fatalf("empty BaseURLs = %v, %v", got, err)
	}
	if _, err := BaseURLs("p", "-peers", "http://a:1,nota url"); err == nil {
		t.Fatal("invalid peer accepted")
	}
}

func TestAll(t *testing.T) {
	if err := All(nil, nil); err != nil {
		t.Fatalf("All(nil, nil) = %v", err)
	}
	e1, e2 := errors.New("first"), errors.New("second")
	if err := All(nil, e1, e2); err != e1 {
		t.Fatalf("All returned %v, want first error", err)
	}
}
