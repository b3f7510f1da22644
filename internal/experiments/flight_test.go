package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"shootdown/internal/fault"
	"shootdown/internal/fault/shrink"
	"shootdown/internal/kernel"
	"shootdown/internal/trace"
)

// flightCell runs one planted-bug chaos cell with the flight recorder
// armed and returns the black box it dumped.
func flightCell(t *testing.T, dir string) (verdict string, box []byte) {
	t.Helper()
	fr, err := trace.NewRecorder(1 << 12)
	if err != nil {
		t.Fatal(err)
	}
	fr.SetDir(dir)
	fr.SetMaxDumps(1)
	fc, err := fault.ParseSpec(chaosScenarios[1].Spec) // hotplug: revive path
	if err != nil {
		t.Fatal(err)
	}
	fc.Seed = 7
	cell := campaignCell(7, 4, fc, shrink.BugSkipReviveFlush)
	cell.Flight = fr
	verdict, _, _ = runCell("churn", cell)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("flight recorder wrote %d black boxes, want 1", len(ents))
	}
	raw, err := os.ReadFile(filepath.Join(dir, ents[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	return verdict, raw
}

// A failing chaos run with the flight recorder armed must write a black
// box, and two identical failing runs must write byte-identical ones —
// the end-to-end form of the recorder's determinism guarantee.
func TestChaosFailureDumpsDeterministicBlackBox(t *testing.T) {
	v1, box1 := flightCell(t, t.TempDir())
	v2, box2 := flightCell(t, t.TempDir())
	if v1 == kernel.VerdictOK {
		t.Fatalf("planted bug did not fail the run (verdict %s)", v1)
	}
	if v1 != v2 {
		t.Fatalf("identical runs produced different verdicts: %s vs %s", v1, v2)
	}
	if !bytes.Equal(box1, box2) {
		t.Fatalf("identical failing runs dumped different black boxes (%d vs %d bytes)", len(box1), len(box2))
	}
}
