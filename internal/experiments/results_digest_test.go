package experiments

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"testing"
)

const resultDigestsPath = "testdata/experiment_digests.json"

// digestSeed is the seed every pinned experiment runs at.
const digestSeed = 7

// pinnedExperiments lists every deterministic experiment with the
// arguments cmd/shootdownsim passes it, except that the run-count sweeps
// (fig2, scale, profile) run once per point. hostcost is absent: it
// measures the host, not the simulated machine. chaos and devices also
// run with the planted bug, so the shrink-and-reproducer path is pinned
// too.
var pinnedExperiments = []struct {
	name string
	run  func() (any, error)
}{
	{"fig2", func() (any, error) { return Fig2(digestSeed, 1) }},
	{"table1", func() (any, error) { return Table1(digestSeed) }},
	{"tables234", func() (any, error) { return Tables234(digestSeed) }},
	{"perturb", func() (any, error) { return Perturbation(digestSeed) }},
	{"scale", func() (any, error) { return Scale(digestSeed, 1) }},
	{"strategies", func() (any, error) { return StrategyCompare(digestSeed, nil) }},
	{"ipimodes", func() (any, error) { return IPIModes(digestSeed, nil) }},
	{"highprio", func() (any, error) { return HighPriorityIPI(digestSeed) }},
	{"idleopt", func() (any, error) { return IdleOpt(digestSeed) }},
	{"threshold", func() (any, error) { return FlushThreshold(digestSeed, 16) }},
	{"queue", func() (any, error) { return QueueSize(digestSeed) }},
	{"taggedtlb", func() (any, error) { return TaggedTLB(digestSeed) }},
	{"pools", func() (any, error) { return Pools(digestSeed, 8) }},
	{"pageout", func() (any, error) { return Pageout(digestSeed) }},
	{"faults", func() (any, error) { return FaultCampaign(digestSeed) }},
	{"chaos", func() (any, error) { return ChaosCampaign(digestSeed, ChaosOptions{Shrink: true}) }},
	{"chaos+bug", func() (any, error) {
		return ChaosCampaign(digestSeed, ChaosOptions{Shrink: true, PlantBug: true})
	}},
	{"devices", func() (any, error) {
		return DeviceChaosCampaign(digestSeed, DeviceChaosOptions{Devices: 2, Shrink: true})
	}},
	{"devices+bug", func() (any, error) {
		return DeviceChaosCampaign(digestSeed, DeviceChaosOptions{Devices: 2, Shrink: true, PlantBug: true})
	}},
	{"explore", func() (any, error) { return ExploreCampaign(digestSeed, ExploreOptions{Budget: 24}) }},
	{"timetravel", func() (any, error) { return TimeTravel(digestSeed, 5_000_000, 0) }},
	{"profile", func() (any, error) { return Profile(digestSeed, 1) }},
}

// TestExperimentDigests pins the virtual-time results of every
// deterministic experiment at seed 7: each result's JSON is hashed with
// 64-bit FNV-1a (the hash internal/snap uses) and compared against
// testdata/experiment_digests.json. Any change to a simulated number —
// a cost constant, an event reordering, a harvest that reads a counter
// at a different moment — fails here and names the experiment. Re-bless
// an intended change with `make bless`.
func TestExperimentDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	got := map[string]string{}
	for _, e := range pinnedExperiments {
		res, err := e.run()
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		got[e.name] = bytesDigest(t, raw)
	}

	if *update {
		writeDigests(t, resultDigestsPath, got)
		return
	}
	want := readDigests(t, resultDigestsPath)
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if got[name] != want[name] {
			t.Errorf("experiment %s: result digest %s, pinned %s", name, got[name], want[name])
		}
	}
	if len(want) != len(got) {
		t.Errorf("pinned %d experiments, ran %d", len(want), len(got))
	}
}

// bytesDigest returns the 64-bit FNV-1a digest of raw in hex.
func bytesDigest(t *testing.T, raw []byte) string {
	t.Helper()
	h := fnv.New64a()
	h.Write(raw)
	return fmt.Sprintf("%016x", h.Sum64())
}

// writeDigests blesses a digest file from this build.
func writeDigests(t *testing.T, path string, digests map[string]string) {
	t.Helper()
	raw, err := json.MarshalIndent(digests, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// readDigests loads a committed digest file.
func readDigests(t *testing.T, path string) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run make bless to create it)", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	return want
}
