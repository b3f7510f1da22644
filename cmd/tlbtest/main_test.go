package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBadShapeIsRejected checks that a machine or tester shape the tester
// cannot run exits 2 naming the flag, before anything runs.
func TestBadShapeIsRejected(t *testing.T) {
	for _, c := range []struct {
		argv []string
		flag string
	}{
		{[]string{"-children", "0"}, "-children 0:"},
		{[]string{"-children", "4", "-cpus", "2"}, "-children 4:"},
		{[]string{"-cpus", "1"}, "-cpus 1:"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.argv, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit status %d, want 2", c.argv, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: wrote to stdout before rejecting the flag:\n%s", c.argv, stdout.String())
		}
		if want := "tlbtest: " + c.flag; !strings.HasPrefix(stderr.String(), want) {
			t.Errorf("%v: stderr %q does not start with %q", c.argv, stderr.String(), want)
		}
	}
}

// TestOutputIsPinned runs the tester under every -strategy at -children
// 4, and the default strategy at -children 15, and compares the JSON
// result and the exit status with testdata/<strategy>-<children>.json:
// the counters at the reprotect and after the faults move if a child's
// loop charges one probe, access or think slice differently. The runs
// cover the three reference/modify writeback modes, and timer-flush
// keeps the clock on, so its children are preempted mid-loop.
func TestOutputIsPinned(t *testing.T) {
	for _, c := range []struct {
		strategy string
		children int
		code     int
	}{
		{"shootdown", 4, 0},
		{"none", 4, 1}, // the broken kernel: a counter moves after the reprotect
		{"hardware-remote", 4, 0},
		{"postponed-ipi", 4, 0},
		{"timer-flush", 4, 0},
		{"shootdown", 15, 0},
	} {
		name := fmt.Sprintf("%s-%d", c.strategy, c.children)
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			argv := []string{"-children", fmt.Sprint(c.children), "-strategy", c.strategy, "-format", "json"}
			if code := run(argv, &stdout, &stderr); code != c.code {
				t.Errorf("exit status %d, want %d; stderr: %s", code, c.code, stderr.String())
			}
			if got := stdout.Bytes(); !bytes.Equal(got, want) {
				t.Errorf("output differs from testdata/%s.json:\n got %s\nwant %s", name, got, want)
			}
		})
	}
}
