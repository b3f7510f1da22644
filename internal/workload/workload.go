// Package workload implements the paper's evaluation programs (Section
// 5.2) as synthetic applications with the same memory-usage signatures,
// plus the §5.1 TLB-consistency tester. Each workload assembles a kernel,
// runs to completion in virtual time, and returns the instrumentation the
// paper's tables are computed from.
//
// The applications:
//
//   - Mach kernel build — uses multiple processors only for throughput; no
//     user-level sharing; heavy kernel-map buffer churn (kernel-pmap
//     shootdowns; Table 1's lazy-evaluation headline).
//   - Parthenon — parallel theorem prover; workpile of worker threads that
//     allocate memory for intermediate results; cthread stack setup
//     reprotects an untouched guard page (the user shootdowns lazy
//     evaluation eliminates entirely).
//   - Agora — shared write-once memory set up while all workers run (big
//     machine-wide shootdowns during setup, then almost none: the bimodal
//     distribution of Table 2).
//   - Camelot — transaction processing with aggressive copy-on-write: fork
//     snapshots write-protect the live database segment and every COW break
//     replaces a mapped frame, both of which shoot (all of Table 3's user
//     shootdowns come from Camelot).
package workload

import (
	"fmt"
	"math/rand"

	"shootdown/internal/core"
	"shootdown/internal/fault"
	"shootdown/internal/kernel"
	"shootdown/internal/machine"
	"shootdown/internal/profile"
	"shootdown/internal/sim"
	"shootdown/internal/stats"
	"shootdown/internal/tlb"
	"shootdown/internal/trace"
	"shootdown/internal/xpr"
)

// AppConfig configures an application run.
type AppConfig struct {
	NCPUs int   // default 16
	Seed  int64 // cost jitter, scheduling chaos, workload randomness
	// LazyDisabled turns off the pmap module's valid-mapping check
	// (Table 1's ablation).
	LazyDisabled bool
	// Strategy overrides the consistency mechanism (nil = Mach shootdown).
	Strategy func(*machine.Machine) (core.Strategy, error)
	// TLB overrides the per-CPU TLB configuration (writeback policy,
	// tagging) for hardware ablations.
	TLB tlb.Config
	// RemoteInvalidate equips the TLBs with the MC88200-style remote
	// invalidation port (§9).
	RemoteInvalidate bool
	// IPIMode selects unicast/multicast/broadcast interrupt hardware.
	IPIMode machine.IPIMode
	// LazyASIDRelease enables the §10 tagged-TLB extension (requires
	// TLB.Tagged).
	LazyASIDRelease bool
	// HighPriorityIPI enables the §9 software-interrupt hardware option.
	HighPriorityIPI bool
	// TraceOff disables instrumentation (perturbation experiment, §6.1).
	TraceOff bool
	// NoTimer disables the preemption clock (the basic-cost experiment
	// wants threads pinned and no scheduler noise).
	NoTimer bool
	// ForcedTies overrides the engine's chaos tie decisions by ordinal
	// (sim.Engine.SetForcedTies); the DPOR-lite explorer uses it to steer a
	// replay down one specific interleaving. Only meaningful with a nonzero
	// Seed.
	ForcedTies []int
	// MaxVirtualTime overrides the engine's safety bound (0 = default).
	MaxVirtualTime sim.Time
	// Scale multiplies the amount of work (1.0 = the calibrated default).
	Scale float64
	// ShootdownOptions tunes the algorithm when Strategy is nil.
	ShootdownOptions core.Options
	// Tracer, when set, records typed span/instant events from every layer
	// of the run. Recording charges no virtual time, so results are
	// bit-identical with and without it.
	Tracer *trace.Tracer
	// Faults, when set, injects deterministic hardware faults (dropped or
	// delayed IPIs, slow responders, bus jitter) per the config; its Seed
	// field drives the injection sequence.
	Faults *fault.Config
	// Oracle attaches the independent TLB-consistency checker; the run
	// fails if any TLB grants an access through a stale translation.
	Oracle bool
	// BugSkipReviveFlush plants the intentional stale-TLB-after-revive bug
	// (a hot-plugged CPU skips its hardware TLB reset) so chaos campaigns
	// can prove the oracle catches it and the shrinker minimizes it.
	BugSkipReviveFlush bool
	// NumDevices adds device TLBs (DMA engines with their own MMUs) as
	// shootdown participants; the DMA workload attaches them to its
	// streaming tasks.
	NumDevices int
	// BugSkipDevInval plants the intentional stale-device-TLB bug (the
	// device acknowledges invalidations without performing them), the
	// device sibling of BugSkipReviveFlush.
	BugSkipDevInval bool
	// Profiler, when set, attaches the virtual-time profiler (phase
	// attribution, per-shootdown critical paths, contention histograms).
	// Recording charges no virtual time, so results are bit-identical
	// with and without it.
	Profiler *profile.Profiler
	// Flight, when set, attaches the flight recorder: a black box of
	// recent events and per-layer state dumped when the run fails or the
	// watchdog escalates. Recording charges no virtual time, so results
	// are bit-identical with and without it.
	Flight *trace.Recorder
	// Observe, when set, is called with the kernel after the run completes
	// (metrics harvesting).
	Observe func(*kernel.Kernel)
}

func (c AppConfig) withDefaults() AppConfig {
	if c.NCPUs == 0 {
		c.NCPUs = 16
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
	return c
}

// sampledCPUs mirrors the paper's 5-of-16 responder sampling.
func sampledCPUs(ncpu int) []int {
	var out []int
	for i := 0; i < ncpu && len(out) < 5; i += 3 {
		out = append(out, i)
	}
	return out
}

// newKernel assembles a kernel per the config.
func (c AppConfig) newKernel() (*kernel.Kernel, error) {
	mo := machine.Options{
		NumCPUs:          c.NCPUs,
		MemFrames:        16384, // 64 MB
		Seed:             c.Seed,
		HighPriorityIPI:  c.HighPriorityIPI,
		TLB:              c.TLB,
		RemoteInvalidate: c.RemoteInvalidate,
		IPIMode:          c.IPIMode,
		SkipReviveFlush:  c.BugSkipReviveFlush,
		NumDevices:       c.NumDevices,
		SkipDevInval:     c.BugSkipDevInval,
	}
	if c.Faults != nil && c.Faults.Enabled() {
		mo.Faults = fault.New(*c.Faults)
	}
	timer := sim.Time(10_000_000) // 10 ms tick
	if c.NoTimer {
		timer = 0
	}
	k, err := kernel.New(kernel.Config{
		Machine:          mo,
		Shootdown:        c.ShootdownOptions,
		StrategyFactory:  c.Strategy,
		SampleResponders: sampledCPUs(c.NCPUs),
		TimerInterval:    timer,
		Quantum:          30_000_000,
		IdleTick:         200_000,
		ChaosSeed:        c.Seed,
		ForcedTies:       c.ForcedTies,
		TraceOff:         c.TraceOff,
		MaxTime:          c.MaxVirtualTime,
		Tracer:           c.Tracer,
		Oracle:           c.Oracle,
		Profiler:         c.Profiler,
		Flight:           c.Flight,
	})
	if err != nil {
		return nil, err
	}
	k.Pmaps.LazyDisabled = c.LazyDisabled
	k.Pmaps.LazyASIDRelease = c.LazyASIDRelease
	return k, nil
}

// AppResult carries everything the tables need from one application run.
type AppResult struct {
	Name    string
	Runtime sim.Time

	// Initiator elapsed times in µs, split by pmap kind, and the pages /
	// processors recorded per event.
	KernelInitUS []float64
	UserInitUS   []float64
	KernelProcs  []float64
	UserPages    []float64
	// Responder service times in µs (sampled CPUs only).
	ResponderUS []float64

	Shootdown core.Stats

	// TraceDropped counts xpr records lost to buffer wraparound; nonzero
	// means the measurement above is incomplete.
	TraceDropped uint64
}

// KernelEvents returns the number of kernel-pmap shootdowns.
func (r AppResult) KernelEvents() int { return len(r.KernelInitUS) }

// UserEvents returns the number of user-pmap shootdowns.
func (r AppResult) UserEvents() int { return len(r.UserInitUS) }

// KernelSummary digests the kernel-pmap initiator times.
func (r AppResult) KernelSummary() stats.Summary { return stats.Summarize(r.KernelInitUS, 5) }

// UserSummary digests the user-pmap initiator times.
func (r AppResult) UserSummary() stats.Summary { return stats.Summarize(r.UserInitUS, 5) }

// ResponderSummary digests the responder times.
func (r AppResult) ResponderSummary() stats.Summary { return stats.Summarize(r.ResponderUS, 5) }

// OverheadPct estimates machine-wide shootdown overhead as a percentage of
// total machine time (Section 8's pessimistic scaling: the initiator cost
// plus every other processor charged the mean responder cost per event).
func (r AppResult) OverheadPct(ncpu int, kernel bool) float64 {
	if r.Runtime == 0 {
		return 0
	}
	var events []float64
	if kernel {
		events = r.KernelInitUS
	} else {
		events = r.UserInitUS
	}
	respMean := stats.Mean(r.ResponderUS)
	totalUS := 0.0
	for _, e := range events {
		totalUS += e + float64(ncpu-1)*respMean
	}
	machineUS := r.Runtime.Microseconds() * float64(ncpu)
	return 100 * totalUS / machineUS
}

// collect harvests the instrumentation after a run.
func collect(cfg AppConfig, name string, k *kernel.Kernel) AppResult {
	r := AppResult{Name: name, Runtime: k.Now()}
	r.KernelInitUS, r.UserInitUS = k.Trace.InitiatorTimes()
	r.ResponderUS = k.Trace.ResponderTimes()
	for _, ev := range k.Trace.Select(xpr.EvInitiator) {
		kern, pages, procs, _ := ev.Initiator()
		if kern {
			r.KernelProcs = append(r.KernelProcs, float64(procs))
		} else {
			r.UserPages = append(r.UserPages, float64(pages))
		}
	}
	if k.Shoot != nil {
		r.Shootdown = k.Shoot.Stats()
	}
	r.TraceDropped = k.Trace.Dropped()
	if cfg.Observe != nil {
		cfg.Observe(k)
	}
	return r
}

// installDeviceLoad generates asynchronous device interrupts whose service
// routines run with device interrupts (and on stock hardware, shootdown
// IPIs) masked — "many short intervals, but few long ones" (Section 8),
// the source of the extra latency and skew of kernel-pmap shootdowns.
func installDeviceLoad(k *kernel.Kernel, seed int64, meanGap sim.Time) {
	rng := rand.New(rand.NewSource(seed + 99))
	k.M.SetHandler(machine.VecDevice, func(ex *machine.Exec, _ machine.Vector) {
		// Auto-masked at device priority for the whole service time.
		var service sim.Time
		if rng.Intn(10) == 0 {
			service = sim.Time(2_000_000 + rng.Intn(6_000_000)) // few long
		} else {
			service = sim.Time(100_000 + rng.Intn(300_000)) // many short
		}
		ex.ChargeTime(service)
	})
	k.Eng.Spawn("devices", func(p *sim.Proc) {
		cpu := 0
		for {
			gap := meanGap/2 + sim.Time(rng.Int63n(int64(meanGap)))
			p.Sleep(gap)
			if len(k.Eng.LiveProcs()) <= 2 { // only us and the clock left
				return
			}
			k.M.Post(cpu, machine.VecDevice)
			cpu = (cpu + 1) % k.M.NumCPUs()
		}
	})
}

// scaled applies the config's work multiplier to a count.
func scaled(c AppConfig, n int) int {
	out := int(float64(n) * c.Scale)
	if out < 1 {
		out = 1
	}
	return out
}

// jitterDur returns a duration uniformly in [base, base+spread).
func jitterDur(rng *rand.Rand, base, spread sim.Time) sim.Time {
	if spread <= 0 {
		return base
	}
	return base + sim.Time(rng.Int63n(int64(spread)))
}

// check panics on unexpected workload-internal errors: a failure here is a
// bug in the simulation, not a result.
func check(err error, what string) {
	if err != nil {
		panic(fmt.Sprintf("workload: %s: %v", what, err))
	}
}
