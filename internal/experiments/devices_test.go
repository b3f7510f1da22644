package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"shootdown/internal/fault/shrink"
	"shootdown/internal/kernel"
)

// TestDeviceChaosCampaignSurvivesWithoutBug is the device tentpole
// acceptance run: with the protocol unmodified, every device-chaos
// scenario — stalled completions, deaf doorbells, wedged queues, and a
// CPU fail-stopping while a device is stalled mid-shootdown — must end
// with a clean verdict and zero oracle violations. The quarantine ladder,
// not luck, is what carries the wedge scenario to the finish line, so the
// run also asserts the escalations actually fired. The campaign is run
// twice and must be byte-identical: device chaos is still simulation.
func TestDeviceChaosCampaignSurvivesWithoutBug(t *testing.T) {
	res, err := DeviceChaosCampaign(&Args{Seed: 7, Devices: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != len(deviceScenarios) {
		t.Fatalf("campaign ran %d scenarios, want %d", len(res.Runs), len(deviceScenarios))
	}
	sawQuarantine, sawEscalation, sawCrossLayer := false, false, false
	for _, run := range res.Runs {
		if run.Verdict != kernel.VerdictOK {
			t.Errorf("%s: verdict %s: %s", run.Scenario, run.Verdict, run.Err)
		}
		if run.Violations != 0 {
			t.Errorf("%s: %d oracle violations", run.Scenario, run.Violations)
		}
		if run.DevInvalsPosted == 0 {
			t.Errorf("%s: no device invalidations posted — devices never joined a shootdown", run.Scenario)
		}
		if run.DevQuarantines > 0 {
			sawQuarantine = true
		}
		if run.DevTimeouts > 0 || run.DevRerings > 0 {
			sawEscalation = true
		}
		if run.Faults.FailStops > 0 && run.Faults.DevStalls > 0 {
			sawCrossLayer = true
		}
	}
	if !sawEscalation {
		t.Error("no scenario drove the device watchdog ladder (no timeouts or re-rings)")
	}
	if !sawQuarantine {
		t.Error("no scenario escalated to quarantine — the wedge rung went untested")
	}
	if !sawCrossLayer {
		t.Error("no run lost a CPU and stalled a device in the same window")
	}

	again, err := DeviceChaosCampaign(&Args{Seed: 7, Devices: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(res)
	b, _ := json.Marshal(again)
	if string(a) != string(b) {
		t.Fatal("device campaign is not byte-deterministic across identical runs")
	}
}

// TestDeviceBugShrinks plants the stale-device-TLB bug (devices ack
// invalidations without performing them) and closes the robustness loop
// for the device layer: the oracle's stale-DMA property catches it, the
// shrinker minimizes the fault schedule, and the reproducer replays — via
// the same ReplayRepro path the CPU corpus uses — to the identical
// verdict, twice.
func TestDeviceBugShrinks(t *testing.T) {
	res, err := DeviceChaosCampaign(&Args{Seed: 7, Devices: 2, PlantBug: true})
	if err != nil {
		t.Fatal(err)
	}
	var hit *DeviceChaosRun
	for i := range res.Runs {
		if res.Runs[i].Verdict == kernel.VerdictOracle {
			hit = &res.Runs[i]
			break
		}
	}
	if hit == nil {
		t.Fatalf("planted dev bug never produced an oracle verdict: %+v", res.Runs)
	}
	if hit.Repro == nil {
		t.Fatal("failing run produced no reproducer")
	}
	if hit.Repro.Workload != "dma" || hit.Repro.Devices == 0 {
		t.Fatalf("reproducer lost its device shape: workload=%q devices=%d",
			hit.Repro.Workload, hit.Repro.Devices)
	}
	if hit.Repro.Bug != "skip-dev-inval" {
		t.Fatalf("reproducer bug knob %q, want skip-dev-inval", hit.Repro.Bug)
	}
	for i := 0; i < 2; i++ {
		verdict, detail, err := ReplayRepro(*hit.Repro)
		if err != nil {
			t.Fatal(err)
		}
		if verdict != hit.Verdict {
			t.Fatalf("replay %d diverged: verdict %s (%s), want %s", i, verdict, detail, hit.Verdict)
		}
	}
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

// TestRegenerateDeviceCorpus rebuilds the committed device reproducers,
// gated exactly like TestRegenerateCorpus. The cpufail+devstall scenario
// is the one the corpus keeps: a CPU fail-stops while a device completion
// is stalled mid-shootdown, and the planted skip-dev-inval bug turns the
// stall window into a detected stale DMA.
func TestRegenerateDeviceCorpus(t *testing.T) {
	//lint:allow simdeterminism REGEN_CORPUS gates a test-data regeneration tool, not a simulation result
	if os.Getenv("REGEN_CORPUS") == "" {
		t.Skip("set REGEN_CORPUS=1 to rewrite testdata/corpus")
	}
	res, err := DeviceChaosCampaign(&Args{Seed: 7, Devices: 2, PlantBug: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range res.Runs {
		if run.Repro == nil || run.Scenario != "cpufail+devstall" {
			continue
		}
		r := *run.Repro
		r.Note = "planted skip-dev-inval bug: CPU fail-stop while a device completion stalls mid-shootdown, minimized by the device campaign shrinker"
		path := filepath.Join("testdata", "corpus", "cpufail-devstall-stale-dma.json")
		if err := shrink.Save(path, r); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d events)", path, len(r.Keep))
	}
}
