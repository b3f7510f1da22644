package experiments

import (
	"shootdown/internal/fault"
	"shootdown/internal/fault/shrink"
	"shootdown/internal/kernel"
	"shootdown/internal/workload"
)

// deviceScenarios is the device-chaos campaign: IOMMU/device-TLB fault
// kinds, alone and combined with processor fail-stop, against the
// DMA-streaming workload with the watchdog armed and the oracle shadowing
// every device TLB. The quarantine ladder must carry every run to a clean
// finish: a wedged device never wedges the shootdown, and no DMA ever
// lands through a translation the device acknowledged invalidating.
var deviceScenarios = []scenario{
	{"devstall", "devstall=0.6,devstallmax=6ms"},
	{"doorbell-drop", "devdrop=0.5"},
	{"wedge", "devwedge=0.25"},
	{"reorder+stall", "devreorder=0.6,devstall=0.3,devstallmax=4ms"},
	// The cross-layer scenario: a CPU fail-stops while a device is
	// stalled mid-shootdown, so the heterogeneous barrier loses a CPU
	// member and a device member in the same window.
	{"cpufail+devstall", "failstop=0.9,failby=8ms,revive=0.8,reviveafter=4ms,devstall=0.8,devstallmax=6ms"},
}

// DeviceChaosRun is one device scenario's outcome.
type DeviceChaosRun struct {
	scenarioOutcome

	Faults fault.Stats
	// Device-side shootdown counters: invalidations posted, and the
	// watchdog ladder's escalation tallies.
	DevShootdowns      uint64
	DevInvalsPosted    uint64
	DevTimeouts        uint64
	DevRerings         uint64
	DevResets          uint64
	DevQuarantines     uint64
	DevOfflineSkipped  uint64
	OracleDevUseChecks uint64
	OracleGraceUses    uint64
	Violations         uint64

	shrinkOutcome
}

// harvest reads the run's fault, device-ladder and oracle counters.
func (row *DeviceChaosRun) harvest(k *kernel.Kernel) {
	row.Faults = k.M.Faults().Stats()
	if k.Shoot != nil {
		st := k.Shoot.Stats()
		row.DevShootdowns = st.DevShootdowns
		row.DevInvalsPosted = st.DevInvalsPosted
		row.DevTimeouts = st.DevCompletionTimeouts
		row.DevRerings = st.DevRerings
		row.DevResets = st.DevResets
		row.DevQuarantines = st.DevQuarantines
		row.DevOfflineSkipped = st.DevOfflineSkipped
	}
	if k.Oracle != nil {
		k.Oracle.Check()
		ost := k.Oracle.Stats()
		row.OracleDevUseChecks = ost.DevUseChecks
		row.OracleGraceUses = ost.DevGraceUses
		row.Violations = ost.Violations
	}
}

// DeviceChaosResult is the whole device campaign.
type DeviceChaosResult struct {
	Seed    int64
	NCPUs   int
	Devices int
	Runs    []DeviceChaosRun
}

// Failures counts non-ok runs.
func (r DeviceChaosResult) Failures() int { return failures(r.Runs) }

// deviceCPUs is the machine size of the device campaign's DMA-streaming
// fixture.
const deviceCPUs = 4

// DeviceChaosCampaign runs every device-chaos scenario, plus a.DevFaults
// as a "custom" scenario when set, against the DMA-streaming workload on
// a.Devices device TLBs. A failing run (which, with a.PlantBug planting
// the stale-device-TLB bug, machine.Options.SkipDevInval, so that devices
// acknowledge invalidations without performing them, is the expected
// outcome) is delta-debugged down to a 1-minimal fault schedule and
// packaged as a replayable reproducer, exactly like the CPU campaign.
func DeviceChaosCampaign(a *Args) (DeviceChaosResult, error) {
	scenarios := deviceScenarios
	if a.DevFaults != "" {
		scenarios = append(scenarios, scenario{"custom", a.DevFaults})
	}
	runs, err := runCampaign[DeviceChaosRun](a, campaign{
		kind:      "device",
		scenarios: scenarios,
		workload:  "dma",
		// The shared device-chaos fixture: the DMA-streaming workload,
		// oracle shadowing every device TLB.
		cell: func(fc fault.Config) workload.AppConfig {
			cell := campaignCell(a.Seed, deviceCPUs, fc, a.plant(shrink.BugSkipDevInval))
			cell.NumDevices = a.Devices
			return cell
		},
	})
	return DeviceChaosResult{Seed: a.Seed, NCPUs: deviceCPUs, Devices: a.Devices, Runs: runs}, err
}

// Doc is the device campaign.
func (r DeviceChaosResult) Doc() Doc {
	var d Doc
	d.line("Device chaos campaign: IOMMU/device-TLB faults (%d-CPU DMA streams, %d devices, seed %d)",
		r.NCPUs, r.Devices, r.Seed)
	d.line("ladder: completion timeout %v -> re-ring (x%d) -> drain-and-reset -> quarantine\n",
		campaignWatchdog.WatchdogTimeout.Duration(), campaignWatchdog.WatchdogMaxRetries)
	d.row("scenario\tverdict\tposted\ttimeouts\tre-rings\tresets\tquarantines\tgrace uses\toracle viol\tshrunk")
	for _, run := range r.Runs {
		d.row("%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%s",
			run.Scenario, run.Verdict, run.DevInvalsPosted, run.DevTimeouts,
			run.DevRerings, run.DevResets, run.DevQuarantines,
			run.OracleGraceUses, run.Violations, run.column())
	}
	addFailures(&d, r.Runs)
	if r.Failures() == 0 {
		d.line("\nall %d scenarios survived: every shootdown completed despite stalled, deaf, and wedged devices, and no DMA ever used an acknowledged-dead translation", len(r.Runs))
	}
	return d
}
