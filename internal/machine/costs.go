package machine

import (
	"math/rand"

	"shootdown/internal/sim"
)

// Costs is the machine's virtual-time cost model, in nanoseconds.
//
// The defaults are calibrated so a 16-processor machine reproduces the
// paper's measured constants for the NS32332 Encore Multimax — in
// particular the Figure 2 trend line of roughly 430 µs + 55 µs per
// processor involved in a shootdown, with bus congestion appearing once
// about 12 processors actively use the bus. We claim shape fidelity, not
// cycle accuracy (see DESIGN.md §5).
type Costs struct {
	// Instr is the cost of a small bookkeeping operation (a few
	// instructions touching cached data).
	Instr sim.Time
	// MemRead is a data read that hits the (write-allocate) cache.
	MemRead sim.Time
	// TLBProbe is one TLB lookup.
	TLBProbe sim.Time
	// TLBWalk is the MMU's two-level table-walk overhead, excluding the
	// bus transactions for the two PTE reads (charged separately).
	TLBWalk sim.Time
	// TLBInvalidateEntry is a single-entry TLB invalidate.
	TLBInvalidateEntry sim.Time
	// TLBFlushAll is a whole-buffer flush.
	TLBFlushAll sim.Time
	// BusOccupancy is the bus-busy time of one transaction; the write-
	// through caches of the Multimax put every store on the bus.
	BusOccupancy sim.Time
	// LockAcquire / LockRelease cover an uncontended spin-lock handoff.
	LockAcquire sim.Time
	LockRelease sim.Time
	// SpinCheck is one iteration of a spin-wait loop.
	SpinCheck sim.Time
	// SpinBusPeriod makes every Nth spin-wait check fetch the shared
	// state over the bus (the cache line is repeatedly invalidated by
	// the writers being waited on). This — with the interrupt state
	// saves — is what congests the bus once more than ~12 processors
	// take part in a shootdown (Section 7.1). 0 disables the traffic.
	SpinBusPeriod int
	// IPISend is the initiator-side cost of posting one interprocessor
	// interrupt (device-register write + bus transaction).
	IPISend sim.Time
	// IPIMulticastBase/PerTarget cost the bit-vector IPI hardware of §9.
	IPIMulticastBase      sim.Time
	IPIMulticastPerTarget sim.Time
	// IRQLatency is the delay from posting an interrupt until the target
	// CPU notices it (between instructions).
	IRQLatency sim.Time
	// IRQDispatch is the interrupt-entry cost excluding bus traffic.
	IRQDispatch sim.Time
	// IRQDispatchBusWrites is the number of bus transactions for saving
	// processor state on interrupt entry (registers to a write-through
	// cache all go to the bus, which is what congests at high CPU counts).
	IRQDispatchBusWrites int
	// IRQReturn is the interrupt-exit cost.
	IRQReturn sim.Time
	// ContextSwitch is a thread switch excluding pmap activation.
	ContextSwitch sim.Time
	// FaultOverhead is page-fault trap entry/exit, excluding resolution.
	FaultOverhead sim.Time
	// PageZero / PageCopy are the fixed costs of preparing a page, plus
	// the listed number of bus transactions (write-combined).
	PageZero          sim.Time
	PageZeroBusWrites int
	PageCopy          sim.Time
	PageCopyBusWrites int
	// SwapIO is the backing-store transfer time for one page (a late-80s
	// disk: seek + rotation + transfer). It dwarfs everything else, which
	// is the paper's point about pageout: "the overhead of actually
	// performing the pageout is much greater than the overhead of the
	// associated shootdown".
	SwapIO sim.Time
	// JitterPct adds a uniform ±pct% perturbation to every charged cost,
	// modeling the timing noise of a real machine. 0 disables it.
	JitterPct float64
	// DevDoorbell is the CPU-side cost of a doorbell-register write to a
	// device's invalidation queue (posting, re-ringing, resetting all go
	// through the doorbell page).
	DevDoorbell sim.Time
	// DevService is a device's base latency to service one queued
	// invalidation request (ATS invalidate → completion turnaround).
	DevService sim.Time
	// DevWalk is the device MMU's table-walk overhead on an IOTLB miss,
	// excluding the bus transactions for the PTE reads.
	DevWalk sim.Time
	// DevXfer is the data-movement time of one DMA transfer while its
	// translation pins the page.
	DevXfer sim.Time
	// DevReset is the CPU-side cost of a device drain-and-reset (the
	// watchdog's second device escalation rung).
	DevReset sim.Time
	// DevPinPoll is the device's poll period while a queued invalidation
	// waits for overlapping in-flight DMA pins to drain.
	DevPinPoll sim.Time
}

// DefaultCosts returns the Multimax-calibrated cost model.
func DefaultCosts() Costs {
	return Costs{
		Instr:                 200,
		MemRead:               300,
		TLBProbe:              100,
		TLBWalk:               2_000,
		TLBInvalidateEntry:    4_000,
		TLBFlushAll:           20_000,
		BusOccupancy:          600,
		LockAcquire:           4_000,
		LockRelease:           2_000,
		SpinCheck:             2_000,
		SpinBusPeriod:         1,
		IPISend:               46_000,
		IPIMulticastBase:      100_000,
		IPIMulticastPerTarget: 1_000,
		IRQLatency:            8_000,
		IRQDispatch:           360_000,
		IRQDispatchBusWrites:  40,
		IRQReturn:             40_000,
		ContextSwitch:         120_000,
		FaultOverhead:         120_000,
		PageZero:              150_000,
		PageZeroBusWrites:     16,
		PageCopy:              280_000,
		PageCopyBusWrites:     32,
		SwapIO:                22_000_000,
		JitterPct:             0.04,
		DevDoorbell:           2_000,
		DevService:            30_000,
		DevWalk:               4_000,
		DevXfer:               8_000,
		DevReset:              400_000,
		DevPinPoll:            4_000,
	}
}

// jitter perturbs a cost by ±JitterPct using the machine's seeded RNG.
func (c *Costs) jitter(rng *rand.Rand, t sim.Time) sim.Time {
	if c.JitterPct <= 0 || t == 0 {
		return t
	}
	f := 1 + c.JitterPct*(2*rng.Float64()-1)
	out := sim.Time(float64(t) * f)
	if out < 0 {
		out = 0
	}
	return out
}
