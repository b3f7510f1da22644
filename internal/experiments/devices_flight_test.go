package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"shootdown/internal/artifact"
	"shootdown/internal/fault"
	"shootdown/internal/kernel"
	"shootdown/internal/trace"
)

// deviceFlightCell runs one all-wedged device cell with the flight
// recorder armed. Every device ignores its doorbell forever, so the
// ladder must quarantine them — and the quarantine trips the recorder
// even though the run itself survives.
func deviceFlightCell(t *testing.T, dir string) (verdict string, box []byte) {
	t.Helper()
	// A 32K ring keeps the whole escalation ladder (timeouts, failed
	// resets, quarantine) in the window despite the scheduler's run/sleep
	// event flood.
	fr, err := trace.NewRecorder(1 << 15)
	if err != nil {
		t.Fatal(err)
	}
	fr.SetDir(dir)
	fr.SetMaxDumps(1)
	fc, err := fault.ParseSpec("devwedge=1")
	if err != nil {
		t.Fatal(err)
	}
	fc.Seed = 7
	cell := campaignCell(7, 4, fc, "")
	cell.NumDevices, cell.Flight = 2, fr
	verdict, detail, _ := runCell("dma", cell)
	if verdict != kernel.VerdictOK {
		t.Fatalf("wedged-device run did not survive: %s (%s)", verdict, detail)
	}
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

// A device quarantine must dump a black box whose devices section round
// trips through the artifact loaders, passes the device validator, and is
// byte-identical across two identical runs.
func TestDeviceQuarantineBlackBoxRoundTrip(t *testing.T) {
	dir1, dir2 := t.TempDir(), t.TempDir()
	_, box1 := deviceFlightCell(t, dir1)
	_, box2 := deviceFlightCell(t, dir2)
	if !bytes.Equal(box1, box2) {
		t.Fatalf("identical quarantine runs dumped different black boxes (%d vs %d bytes)", len(box1), len(box2))
	}

	path := filepath.Join(dir1, "box.json")
	if err := os.WriteFile(path, box1, 0o644); err != nil {
		t.Fatal(err)
	}
	bb, err := artifact.LoadBlackBox(path)
	if err != nil {
		t.Fatal(err)
	}
	if bb.Reason != "watchdog" {
		t.Fatalf("trip reason %q, want watchdog", bb.Reason)
	}
	if _, err := artifact.ValidateBlackBox(bb); err != nil {
		t.Fatalf("ValidateBlackBox: %v", err)
	}

	devs, ok, err := artifact.DevicesFromBox(bb)
	if err != nil || !ok {
		t.Fatalf("DevicesFromBox: ok=%v err=%v", ok, err)
	}
	summary, err := artifact.ValidateDevices(devs)
	if err != nil {
		t.Fatalf("ValidateDevices: %v", err)
	}
	t.Logf("devices: %s", summary)
	quarantined := 0
	for _, d := range devs {
		if d.State == "quarantined" {
			if !d.Wedged || !d.Poisoned {
				t.Errorf("quarantined device %d not wedged/poisoned: %+v", d.ID, d)
			}
			quarantined++
		}
	}
	if quarantined == 0 {
		t.Fatal("no quarantined device in the devices section")
	}

	// The ring must carry the escalation-ladder instants tlbtrace query
	// -events surfaces: the watchdog's timeout/reset/quarantine markers on
	// the initiating CPU's timeline and the device-side quarantine marker
	// on the device row. (The device's earliest lifecycle instants —
	// doorbell posts, the wedge itself — predate the window; the ladder
	// tail is what a trip is guaranteed to retain.)
	doc, err := artifact.LoadEvents(path)
	if err != nil {
		t.Fatal(err)
	}
	counts := artifact.CountEvents(doc, artifact.Filter{CPU: -1})
	byName := map[string]int{}
	for _, c := range counts {
		byName[c.Name] += c.Count
	}
	for _, want := range []string{"dev-watchdog-timeout", "dev-watchdog-reset", "dev-reset-failed", "dev-watchdog-quarantine", "dev-quarantine"} {
		if byName[want] == 0 {
			t.Errorf("ring has no %q instants (counts: %v)", want, byName)
		}
	}
}
