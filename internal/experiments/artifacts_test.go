package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"shootdown/internal/kernel"
	"shootdown/internal/profile"
	"shootdown/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the seed-7 pins under testdata from this build")

const digestsPath = "testdata/artifact_digests.json"

// digestOf streams write into a 64-bit FNV-1a hash (the hash internal/snap
// uses) and returns it in hex.
func digestOf(t *testing.T, write func(io.Writer) error) string {
	t.Helper()
	h := fnv.New64a()
	if err := write(h); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func fileDigest(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return digestOf(t, func(w io.Writer) error { _, err := w.Write(raw); return err })
}

// TestArtifactDigests pins the observation artifacts of seed-7 runs byte
// for byte: the Chrome trace and metrics of a traced Figure 2 run, the five
// profile files of the profile experiment, and the black boxes of the
// planted-bug chaos cell and the forced device quarantine. The
// determinism tests only compare two runs of one build; this compares a
// build against the committed digests. Re-bless an intended change with
// go test ./internal/experiments -run TestArtifactDigests -update.
func TestArtifactDigests(t *testing.T) {
	got := map[string]string{}

	tr, err := trace.New(1 << 18)
	if err != nil {
		t.Fatal(err)
	}
	var metrics *trace.MetricSet
	if _, err := Fig2(7, 1, Instrument{Tracer: tr, Observe: func(k *kernel.Kernel) { metrics = k.Metrics() }}); err != nil {
		t.Fatal(err)
	}
	got["fig2/trace.json"] = digestOf(t, tr.WriteChromeTrace)
	got["fig2/metrics.txt"] = digestOf(t, func(w io.Writer) error { _, err := metrics.WriteTo(w); return err })

	p := profile.New()
	if _, err := Profile(7, 1, Instrument{Profiler: p}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := profile.WriteDir(p, dir); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"folded.txt", "timeline.csv", "locks.txt", "critical.txt", "shootdowns.json"} {
		got["profile/"+f] = fileDigest(t, filepath.Join(dir, f))
	}

	_, box := flightCell(t, t.TempDir())
	got["flight/chaos-blackbox.json"] = digestOf(t, func(w io.Writer) error { _, err := w.Write(box); return err })
	_, box = deviceFlightCell(t, t.TempDir())
	got["flight/device-quarantine-blackbox.json"] = digestOf(t, func(w io.Writer) error { _, err := w.Write(box); return err })

	if *update {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestsPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(digestsPath)
	if err != nil {
		t.Fatalf("%v (run with -update to bless)", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if got[name] != want[name] {
			t.Errorf("%s: digest %s, pinned %s", name, got[name], want[name])
		}
	}
	if len(want) != len(got) {
		t.Errorf("pinned %d artifacts, produced %d", len(want), len(got))
	}
}
