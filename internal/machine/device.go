package machine

import (
	"fmt"
	"sort"

	"shootdown/internal/ptable"
	"shootdown/internal/sim"
	"shootdown/internal/tlb"
	"shootdown/internal/trace"
)

// Device models a DMA engine or accelerator MMU: a TLB holder that takes
// no interrupts. It cannot join the paper's IPI+spin barrier; instead the
// initiator posts invalidation requests into a bounded doorbell-rung queue
// (the ATS invalidate → wait-for-completion shape) and polls a completion
// watermark. In-flight DMA transactions pin the pages they translate, so a
// queued invalidation cannot complete until the overlapping transfers
// drain — the unmap-under-DMA race the device workload drives.
//
// A device is serviced by a kernel-owned proc (it has no Exec and never
// attaches to a CPU); all of its virtual-time charges are exact, with no
// cost jitter, so device activity consumes no machine randomness and
// device-bearing runs stay deterministic under the same seed.
type Device struct {
	m  *Machine //snap:derived wiring to the owning machine, re-established when the world is rebuilt for replay
	id int
	// TLB caches the device's translations (its IOTLB).
	TLB *tlb.TLB

	state    DevState
	wedged   bool   // a wedged device never services its queue again
	poisoned bool   // quarantine marked every cached translation unusable
	resetGen uint64 // bumped by drain-and-reset and quarantine; in-flight service work from an older generation is discarded

	doorbell bool // set by a ring; cleared when the queue drains
	queue    []DevRequest
	overflow bool // queue overflowed and was collapsed to one full flush

	nextSeq uint64
	// doneLow / doneHigh form the completion watermark: every request with
	// Seq < doneLow has completed, plus the out-of-order completions listed
	// in doneHigh (completion reordering is an injectable fault).
	doneLow  uint64
	doneHigh map[uint64]bool

	// pins counts in-flight DMA transactions per page; a queued
	// invalidation overlapping a pinned page waits for the pin to drain.
	pins map[ptable.VAddr]int

	table *ptable.Table // serialized as HasTable; contents live in physical memory, covered by mem_digest
	asid  tlb.ASID

	stats DevStats
}

// devQueueDepth bounds each device's invalidation queue; an overflow
// collapses the queue to a single full flush.
const devQueueDepth = 4

// DevState is a device's lifecycle state.
type DevState int

// Device lifecycle states.
const (
	// DevOnline: the device translates, transfers, and services its queue.
	DevOnline DevState = iota
	// DevQuarantined: the watchdog fail-stopped the device. It services
	// nothing, completes nothing, and every DMA access faults — its cached
	// translations are poisoned, never granted.
	DevQuarantined
)

func (s DevState) String() string {
	switch s {
	case DevOnline:
		return "online"
	case DevQuarantined:
		return "quarantined"
	default:
		return fmt.Sprintf("devstate(%d)", int(s))
	}
}

// DevRequest is one queued invalidation request.
type DevRequest struct {
	Seq      uint64
	ASID     tlb.ASID
	Start    ptable.VAddr
	End      ptable.VAddr
	FlushAll bool
}

// DevStats counts device events. The new fields carry omitempty tags so a
// deviceless run's wire forms are unchanged.
type DevStats struct {
	InvalsPosted uint64 `json:"invals_posted,omitempty"`
	Completions  uint64 `json:"completions,omitempty"`
	Overflows    uint64 `json:"overflows,omitempty"`
	ReRings      uint64 `json:"rerings,omitempty"`
	Resets       uint64 `json:"resets,omitempty"`
	DMAReads     uint64 `json:"dma_reads,omitempty"`
	DMAWrites    uint64 `json:"dma_writes,omitempty"`
	PinWaits     uint64 `json:"pin_waits,omitempty"`
}

// newDevice builds device id on machine m.
func newDevice(m *Machine, id int, cfg tlb.Config) *Device {
	return &Device{
		m:        m,
		id:       id,
		TLB:      tlb.New(cfg),
		doneHigh: map[uint64]bool{},
		pins:     map[ptable.VAddr]int{},
	}
}

// ID returns the device number.
func (d *Device) ID() int { return d.id }

// Online reports whether the device has not been quarantined.
func (d *Device) Online() bool { return d.state == DevOnline }

// State returns the device's lifecycle state.
func (d *Device) State() DevState { return d.state }

// Wedged reports whether the device stopped servicing its queue (an
// injected fault that drain-and-reset does not clear).
func (d *Device) Wedged() bool { return d.wedged }

// Stats returns a snapshot of the device's event counters.
func (d *Device) Stats() DevStats { return d.stats }

// ASID returns the address-space tag the device translates under.
func (d *Device) ASID() tlb.ASID { return d.asid }

// Table returns the device's translation root (nil when unattached).
func (d *Device) Table() *ptable.Table { return d.table }

// QueueLen returns the number of queued invalidation requests.
func (d *Device) QueueLen() int { return len(d.queue) }

// SetTable points the device's MMU at a translation root; asid tags its
// IOTLB entries when tagging is enabled. The pmap layer calls this when it
// attaches the device to an address space.
func (d *Device) SetTable(t *ptable.Table, asid tlb.ASID) {
	d.table = t
	d.asid = asid
}

// tid is the device's trace timeline: device rows sit above the CPU rows.
func (d *Device) tid() int { return len(d.m.cpus) + d.id }

// devObs returns the machine's device-translation observer, if the MMU
// observer (the oracle) implements the device extension.
func (d *Device) devObs() DevMMUObserver {
	if o, ok := d.m.mmuObs.(DevMMUObserver); ok {
		return o
	}
	return nil
}

// PostInvalidate enqueues an invalidation request and rings the doorbell,
// charging the posting CPU for the doorbell write. It returns the
// request's completion sequence number for the initiator to poll with
// Completed. ok is false when the device is quarantined (nothing to
// invalidate — its translations are poisoned, never granted).
//
// When the queue is full the request stream is collapsed to a single
// full-flush request carrying the newest sequence number: completing a
// flush subsumes every older request, so the initiator's outstanding
// waits all resolve when the collapsed flush completes.
//
// The initial doorbell ring can be lost (the dropped-doorbell fault); the
// request stays queued but unnoticed until the watchdog re-rings.
func (d *Device) PostInvalidate(ex *Exec, asid tlb.ASID, start, end ptable.VAddr, flushAll bool) (seq uint64, ok bool) {
	m := d.m
	if d.state != DevOnline {
		return 0, false
	}
	seq = d.nextSeq
	d.nextSeq++
	d.stats.InvalsPosted++
	req := DevRequest{Seq: seq, ASID: asid, Start: start, End: end, FlushAll: flushAll}
	if d.overflow || len(d.queue) >= devQueueDepth {
		// Bounded queue: collapse to one full flush at the newest seq.
		d.queue = d.queue[:0]
		d.queue = append(d.queue, DevRequest{Seq: seq, FlushAll: true})
		if !d.overflow {
			d.overflow = true
			d.stats.Overflows++
		}
		req = d.queue[0]
	} else {
		d.queue = append(d.queue, req)
	}
	if o := d.devObs(); o != nil {
		o.OnDevInvalPosted(d.id, req.Seq, req.ASID, req.Start, req.End, req.FlushAll)
	}
	ex.charge(m.costs.DevDoorbell)
	ex.busStall("dev-doorbell", 1)
	if m.faults.DoorbellDrop(d.id) {
		m.Tracer().Instant(int64(ex.Now()), d.tid(), trace.CatDevice, "dev-doorbell-drop", int64(seq), 0)
		return seq, true
	}
	d.doorbell = true
	m.Tracer().Instant(int64(ex.Now()), d.tid(), trace.CatDevice, "dev-post", int64(seq), int64(len(d.queue)))
	return seq, true
}

// Ring re-rings the doorbell (the watchdog's first escalation rung). The
// re-ring is reliable — the initiator is retrying precisely because the
// first ring may have been lost.
func (d *Device) Ring(ex *Exec) {
	m := d.m
	d.stats.ReRings++
	ex.charge(m.costs.DevDoorbell)
	ex.busStall("dev-doorbell", 1)
	if d.state == DevOnline && len(d.queue) > 0 {
		d.doorbell = true
	}
	m.Tracer().Instant(int64(ex.Now()), d.tid(), trace.CatDevice, "dev-ring", int64(len(d.queue)), 0)
}

// Completed reports whether the request with the given sequence number has
// completed (directly, through a subsuming flush, or through a reset).
func (d *Device) Completed(seq uint64) bool {
	return seq < d.doneLow || d.doneHigh[seq]
}

// complete advances the completion watermark for one serviced request. A
// full flush subsumes every older request, so its completion advances the
// low watermark past its own sequence number in one step.
func (d *Device) complete(seq uint64, flushAll bool) {
	if flushAll {
		if seq+1 > d.doneLow {
			d.doneLow = seq + 1
		}
	} else if seq == d.doneLow {
		d.doneLow++
	} else if seq > d.doneLow {
		d.doneHigh[seq] = true
	}
	for d.doneHigh[d.doneLow] {
		delete(d.doneHigh, d.doneLow)
		d.doneLow++
	}
	for s := range d.doneHigh {
		if s < d.doneLow {
			delete(d.doneHigh, s)
		}
	}
}

// Reset drains and resets the device (the watchdog's second escalation
// rung): the queue is cleared, the IOTLB is fully flushed — which
// satisfies every invalidation posted so far, so the completion watermark
// jumps to the present — and a generation bump discards any service work
// the device had in flight. A wedged device does not respond to reset;
// Reset returns false and the initiator's only way out is quarantine.
func (d *Device) Reset(ex *Exec) bool {
	m := d.m
	d.stats.Resets++
	ex.charge(m.costs.DevReset)
	ex.busStall("dev-doorbell", 1)
	if d.wedged || d.state != DevOnline {
		m.Tracer().Instant(int64(ex.Now()), d.tid(), trace.CatDevice, "dev-reset-failed", 0, 0)
		return false
	}
	d.resetGen++
	d.queue = d.queue[:0]
	d.overflow = false
	d.doorbell = false
	if !m.opts.SkipDevInval {
		d.TLB.Flush()
	}
	settled := d.nextSeq
	d.doneLow = settled
	for s := range d.doneHigh {
		delete(d.doneHigh, s)
	}
	if o := d.devObs(); o != nil && settled > 0 {
		o.OnDevInvalComplete(d.id, settled-1, tlb.ASIDNone, 0, 0, true)
	}
	m.Tracer().Instant(int64(ex.Now()), d.tid(), trace.CatDevice, "dev-reset", int64(settled), 0)
	return true
}

// Quarantine fail-stops the device (the watchdog's final escalation rung):
// it is evicted from shootdown membership, services nothing, and every
// cached translation is poisoned — a quarantined device grants no access,
// so the shootdown is complete without its acknowledgement. Returns false
// if the device was already quarantined.
func (d *Device) Quarantine(ex *Exec) bool {
	m := d.m
	if d.state == DevQuarantined {
		return false
	}
	d.state = DevQuarantined
	d.poisoned = true
	d.resetGen++
	d.queue = d.queue[:0]
	d.overflow = false
	d.doorbell = false
	m.epoch++
	if o := d.devObs(); o != nil {
		o.OnDevQuarantine(d.id)
	}
	m.Tracer().Emit(trace.KindDevQuarantine, int64(ex.Now()), d.tid(), "dev-quarantine", int64(d.nextSeq), 0)
	return true
}

// sleep consumes exactly dt of device time — no jitter, no randomness.
func (d *Device) sleep(p *sim.Proc, dt sim.Time) {
	for dt > 0 {
		dt -= p.Sleep(dt)
	}
}

// busSleep issues n bus transactions from the device, one at a time (the
// device is a bus master like any CPU).
func (d *Device) busSleep(p *sim.Proc, n int) {
	for i := 0; i < n; i++ {
		w := d.m.Bus.Reserve(d.m.Eng.Now(), 1)
		d.sleep(p, w)
	}
}

// rangePinned reports whether any page covered by req has an in-flight
// DMA transaction pinning it.
func (d *Device) rangePinned(req DevRequest) bool {
	if len(d.pins) == 0 {
		return false
	}
	if req.FlushAll {
		return true
	}
	start := req.Start.Page()
	for va := range d.pins {
		if va >= start && va < req.End {
			return true
		}
	}
	return false
}

// ServiceOne runs one iteration of the device's service engine on its
// kernel-owned proc: if the doorbell is rung and the queue is non-empty,
// it picks a request (normally the head; the completion-reorder fault
// picks a later one), pays the service latency (plus any injected stall),
// waits for overlapping in-flight DMA to drain, applies the invalidation
// to the IOTLB, and advances the completion watermark. It returns whether
// it made progress; the service proc polls again after an idle tick when
// it did not.
//
// A reset or quarantine that lands while the device is mid-service bumps
// the generation; the stale work is discarded (the reset's full flush
// already satisfied it).
func (d *Device) ServiceOne(p *sim.Proc) bool {
	m := d.m
	if d.state != DevOnline || d.wedged {
		return false
	}
	if len(d.queue) == 0 {
		d.doorbell = false
		return false
	}
	if !d.doorbell {
		return false // the ring was dropped; the work sits unnoticed
	}
	gen := d.resetGen
	idx := 0
	if i, ok := m.faults.DevReorder(d.id, len(d.queue)); ok {
		idx = i
	}
	req := d.queue[idx]
	if m.faults.DevWedged(d.id) {
		d.wedged = true
		m.Tracer().Instant(int64(m.Eng.Now()), d.tid(), trace.CatDevice, "dev-wedge", int64(req.Seq), 0)
		return false
	}
	d.sleep(p, m.costs.DevService)
	if delay := m.faults.DevServiceDelay(d.id); delay > 0 {
		// Injected stalls are charged exactly, like Exec.Stall.
		d.sleep(p, delay)
	}
	if d.resetGen != gen || d.state != DevOnline {
		return true // settled by a reset or quarantine while we slept
	}
	for d.rangePinned(req) {
		d.stats.PinWaits++
		m.Tracer().Instant(int64(m.Eng.Now()), d.tid(), trace.CatDevice, "dev-pin-wait", int64(req.Seq), int64(len(d.pins)))
		d.sleep(p, m.costs.DevPinPoll)
		if d.resetGen != gen || d.state != DevOnline {
			return true
		}
	}
	if !m.opts.SkipDevInval {
		// The invalidation proper: drop the covered IOTLB entries.
		if req.FlushAll {
			d.TLB.Flush()
		} else {
			d.TLB.InvalidateRange(req.Start, req.End, req.ASID)
		}
	}
	for i := range d.queue {
		if d.queue[i].Seq == req.Seq {
			d.queue = append(d.queue[:i], d.queue[i+1:]...)
			break
		}
	}
	if req.FlushAll {
		d.overflow = false
	}
	d.complete(req.Seq, req.FlushAll)
	d.stats.Completions++
	if o := d.devObs(); o != nil {
		o.OnDevInvalComplete(d.id, req.Seq, req.ASID, req.Start, req.End, req.FlushAll)
	}
	// Completion message: one bus write to the completion area.
	d.busSleep(p, 1)
	m.Tracer().Instant(int64(m.Eng.Now()), d.tid(), trace.CatDevice, "dev-complete", int64(req.Seq), int64(len(d.queue)))
	return true
}

// translate resolves va through the device's IOTLB for a DMA access. Like
// the CPU path, a stale but cached entry grants whatever it caches — that
// is what makes the device a consistency participant. Device MMUs perform
// no reference/modify writeback (faults report transfers instead, as on
// ATS endpoints), so a device walk never stores to PTEs.
func (d *Device) translate(p *sim.Proc, va ptable.VAddr, write bool) (ptable.PTE, *Fault) {
	m := d.m
	if d.state != DevOnline {
		return 0, &Fault{VA: va, Write: write, Kind: FaultQuarantined}
	}
	if d.table == nil {
		return 0, &Fault{VA: va, Write: write, Kind: FaultNoSpace}
	}
	d.sleep(p, m.costs.TLBProbe)
	if e, hit := d.TLB.Probe(va, d.asid); hit {
		if write && !e.PTE.Writable() {
			return 0, &Fault{VA: va, Write: true, Kind: FaultProtection}
		}
		if o := d.devObs(); o != nil {
			// The cached entry is about to grant the DMA — where a stale
			// translation becomes an observable consistency violation.
			o.OnDevTLBUse(d.id, va, d.asid, e.PTE, d.table, write)
		}
		return e.PTE, nil
	}
	d.sleep(p, m.costs.DevWalk)
	d.busSleep(p, 2) // directory read + PTE read
	pte, _, ok := d.table.Lookup(va)
	if !ok || !pte.Valid() {
		return 0, &Fault{VA: va, Write: write, Kind: FaultNotPresent}
	}
	d.TLB.Insert(va, d.asid, pte)
	if o := d.devObs(); o != nil {
		o.OnDevTLBInsert(d.id, va, d.asid, pte, d.table)
	}
	if write && !pte.Writable() {
		return 0, &Fault{VA: va, Write: true, Kind: FaultProtection}
	}
	return pte, nil
}

// dma performs one DMA transfer: translate, pin the page for the duration
// of the transfer (a queued invalidation overlapping it must wait), move
// the data, unpin. The caller's proc sleeps through the transfer — DMA is
// synchronous from the programming thread's point of view.
func (d *Device) dma(p *sim.Proc, va ptable.VAddr, write bool, v uint32) (uint32, *Fault) {
	pte, f := d.translate(p, va, write)
	if f != nil {
		return 0, f
	}
	page := va.Page()
	d.pins[page]++
	d.sleep(p, d.m.costs.DevXfer)
	d.busSleep(p, 1)
	d.pins[page]--
	if d.pins[page] == 0 {
		delete(d.pins, page)
	}
	if d.state != DevOnline {
		// Quarantined mid-transfer: the transaction is aborted.
		return 0, &Fault{VA: va, Write: write, Kind: FaultQuarantined}
	}
	if !d.m.Phys.FrameAllocated(pte.Frame()) {
		// The frame was reclaimed under the translation — a CPU access
		// here would be a simulator-fatal use-after-free, but for DMA it
		// is the modeled consequence of a stale device translation (the
		// oracle has already judged the use); the bus aborts the transfer.
		return 0, &Fault{VA: va, Write: write, Kind: FaultBusError}
	}
	addr := pte.Frame().Addr(va.Offset())
	if write {
		d.stats.DMAWrites++
		d.m.Phys.WriteWord(addr, v)
		return v, nil
	}
	d.stats.DMAReads++
	return d.m.Phys.ReadWord(addr), nil
}

// DMARead performs a device load from virtual address va through the IOTLB.
func (d *Device) DMARead(p *sim.Proc, va ptable.VAddr) (uint32, *Fault) {
	return d.dma(p, va, false, 0)
}

// DMAWrite performs a device store to virtual address va through the IOTLB.
func (d *Device) DMAWrite(p *sim.Proc, va ptable.VAddr, v uint32) *Fault {
	_, f := d.dma(p, va, true, v)
	return f
}

// DevMMUObserver extends MMUObserver with the device-translation events
// the oracle needs for the stale-DMA property: every IOTLB use and insert,
// plus the lifecycle of each invalidation request (posted → completed) and
// quarantines. The machine discovers the extension by type assertion on
// the installed MMUObserver, so CPU-only observers keep working unchanged.
// The same purity rules apply: no virtual time, no simulation randomness.
type DevMMUObserver interface {
	MMUObserver
	OnDevTLBUse(dev int, va ptable.VAddr, asid tlb.ASID, entry ptable.PTE, table *ptable.Table, write bool)
	OnDevTLBInsert(dev int, va ptable.VAddr, asid tlb.ASID, entry ptable.PTE, table *ptable.Table)
	OnDevInvalPosted(dev int, seq uint64, asid tlb.ASID, start, end ptable.VAddr, flushAll bool)
	OnDevInvalComplete(dev int, seq uint64, asid tlb.ASID, start, end ptable.VAddr, flushAll bool)
	OnDevQuarantine(dev int)
}

// DevReqSnap is one queued invalidation request in wire form.
type DevReqSnap struct {
	Seq      uint64 `json:"seq"`
	ASID     uint16 `json:"asid,omitempty"`
	Start    uint32 `json:"start,omitempty"`
	End      uint32 `json:"end,omitempty"`
	FlushAll bool   `json:"flush_all,omitempty"`
}

// DevPinSnap is one pinned page in wire form.
type DevPinSnap struct {
	VA    uint32 `json:"va"`
	Count int    `json:"count"`
}

// DevSnap is one device's complete state in wire form, for black boxes and
// full-state snapshots: lifecycle, queue and doorbell, the completion
// watermark, in-flight DMA pins, and the IOTLB.
type DevSnap struct {
	ID       int          `json:"id"`
	State    string       `json:"state"`
	Wedged   bool         `json:"wedged,omitempty"`
	Poisoned bool         `json:"poisoned,omitempty"`
	ResetGen uint64       `json:"reset_gen,omitempty"`
	Doorbell bool         `json:"doorbell,omitempty"`
	Overflow bool         `json:"overflow,omitempty"`
	Queue    []DevReqSnap `json:"queue,omitempty"`
	NextSeq  uint64       `json:"next_seq,omitempty"`
	DoneLow  uint64       `json:"done_low,omitempty"`
	DoneHigh []uint64     `json:"done_high,omitempty"`
	Pins     []DevPinSnap `json:"pins,omitempty"`
	ASID     uint16       `json:"asid,omitempty"`
	// HasTable distinguishes "unattached" from an attached space; the
	// table's contents live in physical memory, covered by mem_digest.
	HasTable bool     `json:"has_table,omitempty"`
	TLB      tlb.Snap `json:"tlb"`
	Stats    DevStats `json:"stats"`
}

// Snapshot captures the device's complete state in a fixed wire order:
// queue in queue order, out-of-order completions and pins sorted ascending.
func (d *Device) Snapshot() DevSnap {
	s := DevSnap{
		ID:       d.id,
		State:    d.state.String(),
		Wedged:   d.wedged,
		Poisoned: d.poisoned,
		ResetGen: d.resetGen,
		Doorbell: d.doorbell,
		Overflow: d.overflow,
		NextSeq:  d.nextSeq,
		DoneLow:  d.doneLow,
		ASID:     uint16(d.asid),
		HasTable: d.table != nil,
		TLB:      d.TLB.Snapshot(),
		Stats:    d.stats,
	}
	for _, r := range d.queue {
		s.Queue = append(s.Queue, DevReqSnap{
			Seq: r.Seq, ASID: uint16(r.ASID), Start: uint32(r.Start), End: uint32(r.End), FlushAll: r.FlushAll,
		})
	}
	for seq := range d.doneHigh {
		s.DoneHigh = append(s.DoneHigh, seq)
	}
	sort.Slice(s.DoneHigh, func(i, j int) bool { return s.DoneHigh[i] < s.DoneHigh[j] })
	for va, n := range d.pins {
		s.Pins = append(s.Pins, DevPinSnap{VA: uint32(va), Count: n})
	}
	sort.Slice(s.Pins, func(i, j int) bool { return s.Pins[i].VA < s.Pins[j].VA })
	return s
}
