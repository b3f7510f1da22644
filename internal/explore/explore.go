// Package explore is the schedule-space side of the robustness tooling: a
// shared deterministic run fixture (Cell) and a fault-schedule shrinker
// (Shrink).
//
// Both stand on the same substrate: replaying a fresh world with the same
// (config, seed, mask) lands on byte-identical state, and masking a fault
// event suppresses its effect without perturbing any RNG stream. So a
// shrink candidate is simply the failing run rebuilt with more events
// masked.
package explore

import (
	"shootdown/internal/core"
	"shootdown/internal/fault"
	"shootdown/internal/fault/shrink"
	"shootdown/internal/kernel"
	"shootdown/internal/sim"
	"shootdown/internal/trace"
	"shootdown/internal/workload"
)

// Cell is one deterministic churn run under a fault config: the fixture
// the chaos and device campaigns and the shrinker re-execute. Two Cells
// with equal fields produce byte-identical runs.
type Cell struct {
	Seed  int64
	NCPUs int          // default 6
	Scale float64      // work multiplier (default 0.5, the campaign's)
	Fault fault.Config // fault kinds, rates, and mask
	// Workload selects the fixture: "churn" (default) or "dma" (device
	// streams with unmap-under-DMA churn; requires Devices > 0 or the
	// workload's own default of one device).
	Workload string
	// Devices is the device-TLB count for the "dma" workload.
	Devices int
	// Bug names the intentional bug to plant: "" (none),
	// shrink.BugSkipReviveFlush or shrink.BugSkipDevInval.
	Bug string
	// Shootdown tunes the protocol (the campaign passes its hardened
	// watchdog configuration).
	Shootdown core.Options
	// MaxVirtualTime bounds the run (default 30 virtual seconds).
	MaxVirtualTime sim.Time
	// Flight arms the flight recorder for the run; shrink re-executions
	// pass nil so dozens of replays don't each dump a box.
	Flight *trace.Recorder
	// StopOnViolation stops the engine at the first oracle violation, the
	// semantics Shrink judges candidates under. A minimized reproducer
	// must be replayed with this set: its schedule is 1-minimal for "a
	// violation fires", not for whatever the run would go on to do
	// afterwards (a masked schedule may time out long after the
	// violation a full run would be classified by).
	StopOnViolation bool
}

func (c Cell) withDefaults() Cell {
	if c.Workload == "" {
		c.Workload = "churn"
	}
	if c.NCPUs == 0 {
		c.NCPUs = 6
	}
	if c.Scale == 0 {
		c.Scale = 0.5
	}
	if c.MaxVirtualTime == 0 {
		c.MaxVirtualTime = 30_000_000_000
	}
	return c
}

// app assembles the workload config for this cell.
func (c Cell) app() workload.AppConfig {
	fc := c.Fault
	return workload.AppConfig{
		NCPUs:              c.NCPUs,
		Seed:               c.Seed,
		Scale:              c.Scale,
		ShootdownOptions:   c.Shootdown,
		Oracle:             true,
		BugSkipReviveFlush: c.Bug == shrink.BugSkipReviveFlush,
		NumDevices:         c.Devices,
		BugSkipDevInval:    c.Bug == shrink.BugSkipDevInval,
		MaxVirtualTime:     c.MaxVirtualTime,
		Faults:             &fc,
		Flight:             c.Flight,
	}
}

// Start assembles the cell's kernel with workers spawned but the engine
// not yet run, so callers can drive it in steps.
func (c Cell) Start() (*kernel.Kernel, error) {
	c = c.withDefaults()
	switch c.Workload {
	case "dma":
		return workload.StartDMA(c.app())
	default:
		return workload.StartChurn(c.app())
	}
}

// flightSnapshotStep is the event step at which a flight-armed run pauses
// for a whole-simulation snapshot, early enough to precede the failures
// the chaos campaigns plant. The snapshot rides in the black box's
// "snapshots" section, so every post-mortem artifact embeds a restore
// point.
const flightSnapshotStep = 2000

// Run executes the cell to completion. obs, when non-nil, sees the
// settled kernel exactly once, whether or not the run failed, before the
// verdict is returned (metrics and counter harvesting); the world is
// closed after it. keepEvents asks for the fired fault schedule, which
// costs a full event log: a caller whose failing run may reach Shrink
// wants it, a replay that only reads the verdict does not (events is nil
// then). A flight-armed cell pauses at flightSnapshotStep to take a
// snapshot — a pure read, so the resumed run is byte-identical to an
// uninterrupted one — and a black box it trips carries a restore point.
func (c Cell) Run(keepEvents bool, obs func(*kernel.Kernel)) (verdict, detail string, events []fault.Event) {
	k, err := c.Start()
	if err != nil {
		return kernel.VerdictError, err.Error(), nil
	}
	defer k.Close()
	if keepEvents {
		k.M.Faults().KeepEvents()
	}
	if c.StopOnViolation {
		armStopOnViolation(k)
	}
	var runErr error
	if c.Flight == nil {
		runErr = k.Run()
	} else if paused, err := k.RunTo(flightSnapshotStep); !paused {
		runErr = err
	} else {
		_, snapErr := k.Snapshot()
		runErr = k.Run()
		if snapErr != nil {
			runErr = snapErr
		}
	}
	events = k.M.Faults().Events()
	if obs != nil {
		obs(k)
	}
	if runErr != nil {
		detail = runErr.Error()
	}
	return kernel.Verdict(runErr), detail, events
}
