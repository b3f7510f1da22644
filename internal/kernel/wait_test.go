package kernel

import (
	"fmt"
	"testing"
)

// TestWaitNoteRendersLikeSprintf: wait notes render lazily but must read
// exactly as the eager fmt.Sprintf they replace, since snapshots and the
// wait graph carry the text.
func TestWaitNoteRendersLikeSprintf(t *testing.T) {
	for _, format := range []string{
		"join: waiting for thread %q to exit",
		"mutex: waiting for thread %q to unlock",
	} {
		for _, name := range []string{"", "worker-3", `a "quoted" name`, "tab\there", "ünï\x00code"} {
			w := waitNote{format: format, thread: &Thread{name: name}}
			if got, want := w.String(), fmt.Sprintf(format, name); got != want {
				t.Errorf("note %q with %q = %q, want %q", format, name, got, want)
			}
		}
	}
	for _, cpu := range []int{0, 7, 15, 123} {
		w := idleNote{cpu: cpu, thread: &Thread{name: `w"1`}}
		want := fmt.Sprintf("idle loop: waiting for thread %q to release cpu%d", `w"1`, cpu)
		if got := w.String(); got != want {
			t.Errorf("idle note = %q, want %q", got, want)
		}
	}
}
