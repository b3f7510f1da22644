package driver

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestListNamesEveryAnalyzer(t *testing.T) {
	var out, errb bytes.Buffer
	if code := Main([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("-list exit = %d, stderr: %s", code, errb.String())
	}
	for _, name := range []string{"summary", "simdeterminism", "simconcurrency", "ipldiscipline",
		"lockorder", "snapcoverage", "hookpurity", "rngdiscipline"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %s:\n%s", name, out.String())
		}
	}
}

func TestInScope(t *testing.T) {
	cases := []struct {
		analyzer, path string
		want           bool
	}{
		{"simdeterminism", "shootdown/internal/core", true},
		{"simdeterminism", "shootdown/internal/core_test", true},
		{"simdeterminism", "shootdown/internal/sim", false},
		{"simdeterminism", "shootdown/internal/analysis/load", false},
		{"simconcurrency", "shootdown/internal/workload", true},
		{"ipldiscipline", "shootdown/internal/machine", true},
		{"ipldiscipline", "shootdown/internal/experiments", false},
		{"lockorder", "shootdown/internal/pmap", true},
		{"lockorder", "shootdown/internal/machine", false},
		{"lockorder", "shootdown/cmd/shootdownsim", false},
		{"summary", "shootdown/internal/analysis/load", true},
		{"summary", "shootdown/cmd/shootdownsim", true},
		{"snapcoverage", "shootdown/internal/sim", true},
		{"snapcoverage", "shootdown/internal/profile", false},
		{"hookpurity", "shootdown/internal/profile", true},
		{"hookpurity", "shootdown/internal/trace", true},
		{"hookpurity", "shootdown/internal/sim", true},
		{"hookpurity", "shootdown/internal/artifact", false},
		{"rngdiscipline", "shootdown/internal/tlb", true},
		{"rngdiscipline", "shootdown/internal/stats", false},
	}
	for _, c := range cases {
		if got := inScope(c.analyzer, c.path); got != c.want {
			t.Errorf("inScope(%s, %s) = %v, want %v", c.analyzer, c.path, got, c.want)
		}
	}
}

// TestScopesNameRealPackages checks that every scope entry is a
// directory under internal/: a scope naming a deleted package matches
// nothing, silently.
func TestScopesNameRealPackages(t *testing.T) {
	for analyzer, scope := range scopes {
		for _, dir := range scope {
			if fi, err := os.Stat(filepath.Join("..", "..", dir)); err != nil || !fi.IsDir() {
				t.Errorf("%s scope names %q, which is not a directory under internal/", analyzer, dir)
			}
		}
	}
}

// TestJSONOutputOnCleanTree checks the machine-readable mode: a clean run
// must emit exactly an empty JSON array, so CI consumers can diff output
// across runs without parsing the human rendering.
func TestJSONOutputOnCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks part of the module")
	}
	var out, errb bytes.Buffer
	if code := Main([]string{"-json", "./internal/analysis/..."}, &out, &errb); code != 0 {
		t.Fatalf("shootdownlint -json exit = %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if got := strings.TrimSpace(out.String()); got != "[]" {
		t.Errorf("-json clean output = %q, want []", got)
	}
}

// TestValidateRequires guards the ordering invariant the per-package loop
// relies on: requirements run before their dependents only because they
// precede them in Analyzers.
func TestValidateRequires(t *testing.T) {
	if err := validateRequires(); err != nil {
		t.Fatal(err)
	}
}

// TestWholeTreeIsClean is the same gate make lint applies: the full module
// must produce no findings. It doubles as an end-to-end test of the loader
// and every analyzer against real code.
func TestWholeTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	var out, errb bytes.Buffer
	if code := Main([]string{"./..."}, &out, &errb); code != 0 {
		t.Fatalf("shootdownlint exit = %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
}
