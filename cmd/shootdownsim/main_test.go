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

// TestCatalogIsPinned checks that every catalog entry except hostcost,
// which measures the host, has a seed-7 result pinned by
// internal/experiments' TestExperimentDigests.
func TestCatalogIsPinned(t *testing.T) {
	for _, e := range experiments.Catalog {
		if e.Name == "hostcost" {
			continue
		}
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
