package experiments

import (
	"fmt"

	"shootdown/internal/core"
	"shootdown/internal/fault"
	"shootdown/internal/kernel"
	"shootdown/internal/oracle"
	"shootdown/internal/sim"
	"shootdown/internal/stats"
	"shootdown/internal/workload"
)

// faultScenarios is the built-in fault campaign: each scenario is one fault
// specification (see fault.ParseSpec), run against each campaign workload
// with the initiator watchdog armed and the consistency oracle attached.
// The specs go beyond the paper's hardware assumptions — the Multimax's
// interrupt hardware is reliable; these model it failing.
var faultScenarios = []scenario{
	{"baseline", "none"},
	{"drop10", "drop=0.10"},
	{"drop25+delay", "drop=0.25,delay=0.20,delaymax=2ms"},
	{"slow+stuck", "slow=0.30,slowmax=300us,stuck=0.02,stuckfor=5ms"},
	{"chaos", "drop=0.15,delay=0.15,delaymax=1ms,spurious=0.10,jitter=0.20,slow=0.20"},
}

// campaignWatchdog is the hardened-protocol configuration the campaign runs
// under: time out after 1 ms of silence, retry with exponential backoff
// capped at 8 ms, escalate to the full-flush path after 3 retries.
var campaignWatchdog = core.Options{
	WatchdogTimeout:    1_000_000,
	WatchdogMaxRetries: 3,
	WatchdogBackoffMax: 8_000_000,
}

// FaultRun reports one (scenario, workload) cell of the campaign.
type FaultRun struct {
	Scenario string
	Spec     string
	Workload string

	// Completed is false if the run hung (virtual-time bound), deadlocked,
	// or the oracle observed a consistency violation; Err has the detail.
	Completed bool
	Err       string `json:",omitempty"`

	RuntimeUS float64
	Syncs     uint64
	IPIsSent  uint64

	// Watchdog recovery behaviour.
	WatchdogTimeouts    uint64
	WatchdogRetries     uint64
	WatchdogEscalations uint64
	// Recovery summarizes per-wait recovery latency (first timeout →
	// quiescence) in virtual µs.
	Recovery stats.Summary

	// Injected faults and oracle verdict.
	Faults           fault.Stats
	OracleUseChecks  uint64
	OracleSyncChecks uint64
	OracleStale      uint64
	OracleViolations uint64
}

// FaultCampaignResult is the full campaign grid.
type FaultCampaignResult struct {
	Seed int64
	Runs []FaultRun
}

// Failures counts runs that did not complete cleanly.
func (r FaultCampaignResult) Failures() int {
	n := 0
	for _, run := range r.Runs {
		if !run.Completed {
			n++
		}
	}
	return n
}

// FaultCampaign runs every fault scenario against two workloads — the §5.1
// consistency tester (one sharp shootdown whose rescue is directly visible)
// and a scaled-down Mach kernel build (sustained kernel-pmap shootdown
// traffic) — with the watchdog armed and the oracle checking every
// translation. An Instrument carrying its own Faults config adds a "custom"
// scenario. A failed run is recorded, not fatal: the campaign's verdict is
// the Completed column.
func FaultCampaign(a *Args) (FaultCampaignResult, error) {
	in, seed := a.In, a.Seed
	res := FaultCampaignResult{Seed: seed}

	scenarios := faultScenarios
	if in.injects() {
		scenarios = append(scenarios, scenario{"custom", in.Faults.Spec()})
	}

	for i, sc := range scenarios {
		fc, err := fault.ParseSpec(sc.Spec)
		if err != nil {
			return res, fmt.Errorf("experiments: scenario %s: %w", sc.Name, err)
		}
		fc.Seed = seed + int64(i)*101

		for _, wl := range []string{"tester", "machbuild"} {
			row := FaultRun{Scenario: sc.Name, Spec: sc.Spec, Workload: wl}
			app := in.App(workload.AppConfig{
				NCPUs:            8,
				Seed:             seed,
				ShootdownOptions: campaignWatchdog,
				Oracle:           true,
				MaxVirtualTime:   30_000_000_000, // 30 virtual seconds: a hang fails fast
			})
			app.Faults = &fc
			app.Observe = harvestFaultRun(&row, in.Observe)

			var runErr error
			switch wl {
			case "tester":
				var tr workload.TesterResult
				app.NoTimer = true
				tr, runErr = workload.RunTester(workload.TesterConfig{Children: 6, App: app})
				if runErr == nil && tr.Inconsistent {
					runErr = fmt.Errorf("tester observed a TLB inconsistency")
				}
			case "machbuild":
				app.Scale = 0.25
				_, runErr = workload.RunMachBuild(app)
			}
			row.Completed = runErr == nil
			if runErr != nil {
				row.Err = runErr.Error()
			}
			res.Runs = append(res.Runs, row)
		}
	}
	return res, nil
}

// harvestFaultRun snapshots the protocol, fault, and oracle counters into
// the row after a campaign kernel finishes, chaining any user observer.
func harvestFaultRun(row *FaultRun, user func(*kernel.Kernel)) func(*kernel.Kernel) {
	return func(k *kernel.Kernel) {
		if user != nil {
			user(k)
		}
		row.RuntimeUS = sim.Time(k.Now()).Microseconds()
		if k.Shoot != nil {
			st := k.Shoot.Stats()
			row.Syncs = st.Syncs
			row.IPIsSent = st.IPIsSent
			row.WatchdogTimeouts = st.WatchdogTimeouts
			row.WatchdogRetries = st.WatchdogRetries
			row.WatchdogEscalations = st.WatchdogEscalations
			row.Recovery = stats.Summarize(k.Shoot.WatchdogRecoveryUS(), 5)
		}
		row.Faults = k.M.Faults().Stats()
		var ost oracle.Stats
		if k.Oracle != nil {
			k.Oracle.Check()
			ost = k.Oracle.Stats()
		}
		row.OracleUseChecks = ost.UseChecks
		row.OracleSyncChecks = ost.SyncChecks
		row.OracleStale = ost.StaleCached
		row.OracleViolations = ost.Violations
	}
}

// Doc is the campaign grid.
func (r FaultCampaignResult) Doc() Doc {
	var d Doc
	d.line("Fault campaign: watchdog recovery under injected hardware faults (8-CPU, seed %d)", r.Seed)
	d.line("watchdog: timeout %v, %d retries, backoff cap %v; oracle checking every translation\n",
		campaignWatchdog.WatchdogTimeout.Duration(), campaignWatchdog.WatchdogMaxRetries,
		campaignWatchdog.WatchdogBackoffMax.Duration())
	d.row("scenario\tworkload\tok\truntime(ms)\tsyncs\tfaults\twd timeout\twd retry\twd escal\trecovery µs (mean/p90)\toracle viol\tstale")
	for _, run := range r.Runs {
		ok := "yes"
		if !run.Completed {
			ok = "NO"
		}
		rec := "-"
		if run.Recovery.N > 0 {
			rec = fmt.Sprintf("%.0f/%.0f", run.Recovery.Mean, run.Recovery.P90)
		}
		d.row("%s\t%s\t%s\t%.1f\t%d\t%d\t%d\t%d\t%d\t%s\t%d\t%d",
			run.Scenario, run.Workload, ok, run.RuntimeUS/1000, run.Syncs,
			run.Faults.Total(), run.WatchdogTimeouts, run.WatchdogRetries,
			run.WatchdogEscalations, rec, run.OracleViolations, run.OracleStale)
	}
	for _, run := range r.Runs {
		if !run.Completed {
			d.line("\nFAIL %s/%s: %s", run.Scenario, run.Workload, run.Err)
		}
	}
	if r.Failures() == 0 {
		d.line("\nall %d runs completed: every dropped/delayed IPI was recovered by watchdog retry or escalation, no oracle violations", len(r.Runs))
	}
	return d
}
