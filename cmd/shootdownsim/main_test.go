package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"shootdown/internal/experiments"
)

func TestCatalogNamesUnique(t *testing.T) {
	seen := map[string]bool{"all": true}
	for _, e := range experiments.Catalog {
		if seen[e.Name] {
			t.Errorf("experiment name %q is taken twice", e.Name)
		}
		seen[e.Name] = true
	}
}

// TestCatalogIsPinned checks that every catalog entry has a seed-7 result
// pinned by internal/experiments' TestExperimentDigests.
func TestCatalogIsPinned(t *testing.T) {
	for _, e := range experiments.Catalog {
		if _, err := os.Stat(filepath.Join("..", "..", "internal", "experiments", "testdata", "results", e.Name+".json")); err != nil {
			t.Errorf("%s has no pinned result: %v", e.Name, err)
		}
	}
}

func TestUnknownExperimentIsRejected(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-seed", "7", "fig2", "nosuch"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit status %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("ran something before rejecting the name:\n%s", stdout.String())
	}
	usage := stderr.String()
	if !strings.HasPrefix(usage, `shootdownsim: unknown experiment "nosuch"`) {
		t.Errorf("stderr does not start by naming the unknown experiment:\n%s", usage)
	}
	for _, e := range append(experiments.Catalog, experiments.Experiment{Name: "all"}) {
		if !strings.Contains(usage, "\n  "+e.Name+" ") {
			t.Errorf("usage does not list %s:\n%s", e.Name, usage)
		}
	}
}

// TestBadCountIsRejected checks that a count flag below 1, or a negative
// -at instant, exits 2 naming the flag, before any experiment runs.
func TestBadCountIsRejected(t *testing.T) {
	for _, argv := range [][]string{
		{"-runs", "-1", "fig2"},
		{"-runs", "0", "fig2"},
		{"-devices", "0", "devices"},
		{"-at", "-1ms", "timetravel"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(argv, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit status %d, want 2", argv, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: ran something before rejecting the flag:\n%s", argv, stdout.String())
		}
		if want := "shootdownsim: " + argv[0] + " " + argv[1] + ":"; !strings.HasPrefix(stderr.String(), want) {
			t.Errorf("%v: stderr %q does not start with %q", argv, stderr.String(), want)
		}
	}
}

// TestAtPastTheEndIsRejected checks that a timetravel instant after the
// run's last event fails naming the requested instant and where the run
// ended, not a step the instant never mapped to.
func TestAtPastTheEndIsRejected(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-seed", "7", "-at", "1h", "timetravel"}, &stdout, &stderr); code != 1 {
		t.Errorf("exit status %d, want 1", code)
	}
	want := "shootdownsim: timetravel: experiments: the run ends at step 11063 (t=25818766ns), before the requested t=3600000000000ns; pick an earlier -at\n"
	if stderr.String() != want {
		t.Errorf("stderr %q, want %q", stderr.String(), want)
	}
}
