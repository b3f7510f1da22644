package experiments

import (
	"fmt"

	"shootdown/internal/explore"
	"shootdown/internal/fault"
	"shootdown/internal/fault/shrink"
	"shootdown/internal/kernel"
)

// chaosScenarios is the fail-stop/hot-plug campaign: processor lifecycle
// faults, alone and combined with the interrupt-level chaos of the fault
// campaign, against the churn workload with the watchdog armed and the
// oracle attached. The membership layer must carry every run to a clean
// finish: an initiator never waits on a dead responder, a revived CPU
// never serves a stale translation.
var chaosScenarios = []scenario{
	{"failstop", "failstop=0.9,failby=8ms"},
	{"hotplug", "failstop=0.9,failby=8ms,revive=1,reviveafter=4ms"},
	{"failstop+chaos", "failstop=0.7,failby=8ms,revive=0.8,reviveafter=4ms,drop=0.10,delay=0.10,delaymax=1ms,slow=0.20,slowmax=300us,spurious=0.05"},
}

// churnCPUs is the machine size of the churn fixture that the chaos,
// explore and timetravel experiments share.
const churnCPUs = 6

// campaignCell assembles the shared chaos fixture over the explore
// substrate: churn at half scale, hardened watchdog, oracle attached, and
// bug ("" = none) planted.
func campaignCell(seed int64, ncpus int, fc fault.Config, bug string) explore.Cell {
	return explore.Cell{
		Seed:      seed,
		NCPUs:     ncpus,
		Fault:     fc,
		Bug:       bug,
		Shootdown: campaignWatchdog,
	}
}

// ChaosRun is one scenario's outcome.
type ChaosRun struct {
	scenarioOutcome

	Faults     fault.Stats
	LockBreaks uint64
	// Membership-layer counters: CPUs excluded up front, and waits
	// abandoned because the responder died mid-barrier.
	OfflineSkipped uint64
	MemberRescues  uint64
	OracleStale    uint64
	Violations     uint64

	shrinkOutcome
}

// harvest reads the run's fault, lock-break, membership and oracle
// counters.
func (row *ChaosRun) harvest(k *kernel.Kernel) {
	row.Faults = k.M.Faults().Stats()
	row.LockBreaks = k.M.LockBreaks()
	if k.Shoot != nil {
		st := k.Shoot.Stats()
		row.OfflineSkipped = st.OfflineSkipped
		row.MemberRescues = st.WatchdogMembershipRescues
	}
	if k.Oracle != nil {
		k.Oracle.Check()
		ost := k.Oracle.Stats()
		row.OracleStale = ost.StaleCached
		row.Violations = ost.Violations
	}
}

// ChaosResult is the whole campaign.
type ChaosResult struct {
	Seed  int64
	NCPUs int
	Runs  []ChaosRun
}

// Failures counts non-ok runs.
func (r ChaosResult) Failures() int { return failures(r.Runs) }

// ChaosCampaign runs every fail-stop/hot-plug scenario against the churn
// workload. A failing run (which, with a.PlantBug planting the
// stale-TLB-after-revive bug, machine.Options.SkipReviveFlush, is the
// expected outcome of the hot-plug scenarios) is delta-debugged down to a
// 1-minimal fault schedule and packaged as a replayable reproducer.
func ChaosCampaign(a *Args) (ChaosResult, error) {
	runs, err := runCampaign[ChaosRun](a, campaign{
		kind:      "chaos",
		scenarios: chaosScenarios,
		cell: func(fc fault.Config) explore.Cell {
			return campaignCell(a.Seed, churnCPUs, fc, a.plant(shrink.BugSkipReviveFlush))
		},
	})
	return ChaosResult{Seed: a.Seed, NCPUs: churnCPUs, Runs: runs}, err
}

// ReplayRepro re-executes a minimized reproducer and reports the verdict
// it produced. A healthy reproducer yields exactly its recorded verdict;
// anything else is a divergence (fixed bug, or a nondeterminism bug).
func ReplayRepro(r shrink.Repro) (string, string, error) {
	if err := r.Validate(); err != nil {
		return "", "", err
	}
	switch r.Workload {
	case "churn", "dma":
	default:
		return "", "", fmt.Errorf("experiments: repro workload %q not supported", r.Workload)
	}
	cell := campaignCell(r.Seed, r.NCPUs, r.Faults, r.Bug)
	cell.Ties = r.Ties
	cell.Workload = r.Workload
	cell.Devices = r.Devices
	// Replay under the shrinker's judging semantics: the schedule is
	// 1-minimal for "a violation fires", so the replay stops there too
	// instead of running on into whatever the masked world does next.
	cell.StopOnViolation = true
	verdict, detail, _ := cell.Run(nil)
	return verdict, detail, nil
}

// Doc is the campaign.
func (r ChaosResult) Doc() Doc {
	var d Doc
	d.line("Chaos campaign: processor fail-stop & hot-plug (%d-CPU churn, seed %d)", r.NCPUs, r.Seed)
	d.line("watchdog: timeout %v, %d retries, then escalation; membership re-check on dead responders\n",
		campaignWatchdog.WatchdogTimeout.Duration(), campaignWatchdog.WatchdogMaxRetries)
	d.row("scenario\tverdict\tfails\trevives\tlock breaks\toffline skips\tmember rescues\toracle viol\tshrunk")
	for _, run := range r.Runs {
		d.row("%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%s",
			run.Scenario, run.Verdict, run.Faults.FailStops, run.Faults.Revives,
			run.LockBreaks, run.OfflineSkipped, run.MemberRescues, run.Violations, run.column())
	}
	addFailures(&d, r.Runs)
	if r.Failures() == 0 {
		d.line("\nall %d scenarios survived: no shootdown ever waited on a dead processor, every revived TLB came up cold", len(r.Runs))
	}
	return d
}
