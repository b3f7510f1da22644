package main

import (
	"bytes"
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
