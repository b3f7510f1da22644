package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"shootdown/internal/fault/shrink"
	"shootdown/internal/kernel"
)

// TestChaosCampaignSurvivesWithoutBug is the tentpole acceptance run: with
// the protocol unmodified, every fail-stop and hot-plug scenario must end
// with a clean verdict and zero oracle violations — no shootdown ever
// waits on a dead processor, every revived TLB comes up cold.
func TestChaosCampaignSurvivesWithoutBug(t *testing.T) {
	res, err := ChaosCampaign(&Args{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != len(chaosScenarios) {
		t.Fatalf("campaign ran %d scenarios, want %d", len(res.Runs), len(chaosScenarios))
	}
	sawFail, sawRevive := false, false
	for _, run := range res.Runs {
		if run.Verdict != kernel.VerdictOK {
			t.Errorf("%s: verdict %s: %s", run.Scenario, run.Verdict, run.Err)
		}
		if run.Violations != 0 {
			t.Errorf("%s: %d oracle violations", run.Scenario, run.Violations)
		}
		if run.Faults.FailStops > 0 {
			sawFail = true
		}
		if run.Faults.Revives > 0 {
			sawRevive = true
		}
	}
	if !sawFail || !sawRevive {
		t.Fatalf("campaign exercised no fail/revive (fail=%v revive=%v)", sawFail, sawRevive)
	}
}

// TestStaleReviveBugShrinks plants the stale-TLB-after-revive bug and
// requires the whole robustness loop to close: the oracle catches it, the
// shrinker minimizes the fault schedule to a handful of events, and the
// reproducer replays to the identical verdict.
func TestStaleReviveBugShrinks(t *testing.T) {
	res, err := ChaosCampaign(&Args{Seed: 7, PlantBug: true})
	if err != nil {
		t.Fatal(err)
	}
	var hit *ChaosRun
	for i := range res.Runs {
		if res.Runs[i].Verdict == kernel.VerdictOracle {
			hit = &res.Runs[i]
			break
		}
	}
	if hit == nil {
		t.Fatalf("planted bug never produced an oracle verdict: %+v", res.Runs)
	}
	if len(hit.Shrunk) == 0 || len(hit.Shrunk) > 5 {
		t.Fatalf("shrunk schedule has %d events (want 1..5): %v", len(hit.Shrunk), hit.Shrunk)
	}
	if hit.ScheduleLen <= len(hit.Shrunk) {
		t.Fatalf("shrinker did not reduce: %d -> %d", hit.ScheduleLen, len(hit.Shrunk))
	}
	if hit.Repro == nil {
		t.Fatal("failing run produced no reproducer")
	}
	if m := hit.Repro.Shrink; m == nil || m.Tests == 0 {
		t.Fatalf("reproducer carries no shrink-campaign metadata: %+v", m)
	}
	// The reproducer replays deterministically: same verdict, twice.
	for i := 0; i < 2; i++ {
		verdict, detail, err := ReplayRepro(*hit.Repro)
		if err != nil {
			t.Fatal(err)
		}
		if verdict != hit.Verdict {
			t.Fatalf("replay %d diverged: verdict %s (%s), want %s", i, verdict, detail, hit.Verdict)
		}
	}
	// And the repro file round-trips.
	path := filepath.Join(t.TempDir(), "repro.json")
	if err := shrink.Save(path, *hit.Repro); err != nil {
		t.Fatal(err)
	}
	loaded, err := shrink.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded, *hit.Repro) {
		t.Fatal("reproducer changed across save/load")
	}
}

// TestCorpusReplay replays every committed reproducer in testdata/corpus:
// each must produce exactly its recorded verdict, so once-minimized bugs
// stay reproducible (and fixed bugs are flushed out by the divergence).
func TestCorpusReplay(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no corpus reproducers found under testdata/corpus")
	}
	for _, path := range paths {
		path := path
		t.Run(strings.TrimSuffix(filepath.Base(path), ".json"), func(t *testing.T) {
			r, err := shrink.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			verdict, detail, err := ReplayRepro(r)
			if err != nil {
				t.Fatal(err)
			}
			if verdict != r.Verdict {
				t.Fatalf("replay verdict %s (%s), recorded %s", verdict, detail, r.Verdict)
			}
		})
	}
	// Reproducers written while the shrinker kept a snapshot ladder carry
	// its four counters in their shrink block; they must still load,
	// validate and replay.
	t.Run("retired-ladder-keys", func(t *testing.T) {
		data, err := os.ReadFile(filepath.Join("testdata", "corpus", "cpufail-devstall-stale-dma.json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		doc["shrink"] = json.RawMessage(`{"tests": 3, "restore_hits": 0, "full_replays": 2, "prefix_steps_reused": 0, "suffix_steps": 910}`)
		if data, err = json.Marshal(doc); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "ladder.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := shrink.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if r.Shrink == nil || r.Shrink.Tests != 3 {
			t.Fatalf("shrink block lost its test count: %+v", r.Shrink)
		}
		verdict, detail, err := ReplayRepro(r)
		if err != nil {
			t.Fatal(err)
		}
		if verdict != r.Verdict {
			t.Fatalf("replay verdict %s (%s), recorded %s", verdict, detail, r.Verdict)
		}
	})
	// A reproducer that forces tie decisions names a schedule replay can
	// no longer take; loading it must fail, naming the key, rather than
	// replay a different schedule.
	t.Run("retired-ties-key", func(t *testing.T) {
		data, err := os.ReadFile(filepath.Join("testdata", "corpus", "hotplug-stale-revive.json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		doc["ties"] = json.RawMessage(`[0, 1, 0]`)
		if data, err = json.Marshal(doc); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "ties.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := shrink.Load(path); err == nil || !strings.Contains(err.Error(), `"ties"`) {
			t.Fatalf("Load = %v, want an error naming \"ties\"", err)
		}
	})
}

// TestRegenerateCorpus rebuilds the committed reproducers from scratch.
// Gated behind REGEN_CORPUS=1 so normal runs only replay; regenerate after
// deliberate protocol or injector changes (golden IDs shift) with:
//
//	REGEN_CORPUS=1 go test ./internal/experiments -run RegenerateCorpus
func TestRegenerateCorpus(t *testing.T) {
	//lint:allow simdeterminism REGEN_CORPUS gates a test-data regeneration tool, not a simulation result
	if os.Getenv("REGEN_CORPUS") == "" {
		t.Skip("set REGEN_CORPUS=1 to rewrite testdata/corpus")
	}
	res, err := ChaosCampaign(&Args{Seed: 7, PlantBug: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range res.Runs {
		if run.Repro == nil {
			continue
		}
		r := *run.Repro
		r.Note = "planted skip-revive-flush bug, minimized by the chaos campaign shrinker"
		name := strings.ReplaceAll(run.Scenario, "+", "-") + "-stale-revive.json"
		path := filepath.Join("testdata", "corpus", name)
		if err := shrink.Save(path, r); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d events)", path, len(r.Keep))
	}
}
