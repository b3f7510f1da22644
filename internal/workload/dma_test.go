package workload

import (
	"strings"
	"testing"

	"shootdown/internal/core"
	"shootdown/internal/fault"
	"shootdown/internal/kernel"
)

// TestDMACleanRun: unmap-under-DMA churn with devices attached must
// complete with a quiet oracle (no stale DMA translations), and the
// heterogeneous barrier must actually run — device invalidations posted
// and completed, device translations checked.
func TestDMACleanRun(t *testing.T) {
	var shoot core.Stats
	var o struct{ use, inval, compl uint64 }
	_, err := RunDMA(AppConfig{
		NCPUs: 4, Seed: 7, NumDevices: 2, Oracle: true, Scale: 0.5,
		Observe: func(k *kernel.Kernel) {
			shoot = k.Shoot.Stats()
			os := k.Oracle.Stats()
			o.use, o.inval, o.compl = os.DevUseChecks, os.DevInvalsSeen, os.DevCompletionsSeen
		},
	})
	if err != nil {
		t.Fatalf("clean DMA run failed: %v", err)
	}
	if shoot.DevInvalsPosted == 0 || shoot.DevShootdowns == 0 {
		t.Fatalf("no device participation: %+v", shoot)
	}
	if o.use == 0 || o.inval == 0 || o.compl == 0 {
		t.Fatalf("oracle saw no device activity: %+v", o)
	}
}

// TestDMAWedgedDeviceQuarantines: a device that wedges on its first
// service must not hang the shootdown — the initiator's watchdog walks
// the device ladder (timeout, re-ring, reset, quarantine) and the run
// completes without the device, oracle still quiet.
func TestDMAWedgedDeviceQuarantines(t *testing.T) {
	var shoot core.Stats
	_, err := RunDMA(AppConfig{
		NCPUs: 4, Seed: 11, NumDevices: 1, Oracle: true, Scale: 0.5,
		ShootdownOptions: core.Options{
			WatchdogTimeout:    1_000_000,
			WatchdogMaxRetries: 3,
			WatchdogBackoffMax: 8_000_000,
		},
		Faults:  &fault.Config{Seed: 11, DevWedge: 1.0},
		Observe: func(k *kernel.Kernel) { shoot = k.Shoot.Stats() },
	})
	if err != nil {
		t.Fatalf("wedged-device run failed (watchdog hang?): %v", err)
	}
	if shoot.DevQuarantines == 0 {
		t.Fatalf("wedged device was never quarantined: %+v", shoot)
	}
	if shoot.DevCompletionTimeouts == 0 || shoot.DevRerings == 0 || shoot.DevResets == 0 {
		t.Fatalf("escalation ladder not walked: %+v", shoot)
	}
}

// TestDMASkipDevInvalDetected: with the planted device bug (invalidations
// acknowledged but not performed) the oracle must flag the first DMA that
// translates through an entry a completed shootdown invalidated.
func TestDMASkipDevInvalDetected(t *testing.T) {
	_, err := RunDMA(AppConfig{
		NCPUs: 4, Seed: 7, NumDevices: 1, Oracle: true, Scale: 0.5,
		BugSkipDevInval: true,
	})
	if err == nil {
		t.Fatal("planted SkipDevInval bug not detected")
	}
	if !strings.Contains(err.Error(), "stale-dma") {
		t.Fatalf("wrong failure for SkipDevInval bug: %v", err)
	}
}
