package profile

// The causal reconstructor: core.Shootdown and machine.Machine emit typed
// stream events as a shootdown progresses, and the profiler links them
// into a per-instance DAG — initiator begin (pmap locked) → IPI posts →
// per-responder interrupt entry → barrier arrival (ack) → flush → release
// — from which the critical path and "which responder was last and why"
// fall out. Matching is by expectation, not by trace parsing: the
// initiator registers the responder set just before the IPIs go out, so
// the machine- and responder-side events know which instance they belong
// to even when the trace ring has long since wrapped.

// RespRecord is one responder's leg of a shootdown DAG. Timestamps are
// rebased virtual nanoseconds; zero means the event never happened (the
// initiator released the responder lazily, or the run ended first).
type RespRecord struct {
	CPU int
	// PostT: the IPI was posted on the bus (or found already pending, for
	// coalesced shootdowns). DeliverT: interrupt entry on the responder.
	// AckT: the responder cleared its active bit (barrier arrival — this
	// is what the initiator spins on). FlushT: queued actions processed
	// and the responder rejoined the active set.
	PostT, DeliverT, AckT, FlushT int64
	// MaskedAtPost records whether the responder's IPL masked the IPI at
	// post time.
	MaskedAtPost bool
	// Leaf-phase snapshots of the responder CPU at each DAG node, used to
	// compute exact per-window phase deltas (e.g. bus-stall ns between
	// interrupt entry and ack).
	AtPost, AtDeliver, AtAck, AtFlush PhaseTotals
}

// Components is the attribution of one responder's post→ack latency.
type Components struct {
	// PendNS: time the posted IPI sat undeliverable beyond the hardware
	// interrupt latency — the paper's "masked interval" while a device
	// handler or high-IPL section held the responder.
	PendNS int64 `json:"pend_ns,omitempty"`
	// IRQNS: hardware interrupt latency actually incurred.
	IRQNS int64 `json:"irq_ns,omitempty"`
	// DispatchNS: deliver→ack time executing with the IPI vector masked —
	// interrupt state save, dispatch, and handler entry.
	DispatchNS int64 `json:"dispatch_ns,omitempty"`
	// BusNS: deliver→ack time stalled on the shared bus (state-save
	// writes queueing behind other processors' traffic).
	BusNS int64 `json:"bus_ns,omitempty"`
	// SpinNS: deliver→ack time spinning (lock or barrier).
	SpinNS int64 `json:"spin_ns,omitempty"`
	// OtherNS: the unattributed remainder of deliver→ack.
	OtherNS int64 `json:"other_ns,omitempty"`
	// Why names the dominant cause among the paper's three candidates:
	// "masked" (pend), "dispatch", or "bus".
	Why string `json:"why,omitempty"`
}

// TotalNS is the responder's full post→ack latency.
func (c Components) TotalNS() int64 {
	return c.PendNS + c.IRQNS + c.DispatchNS + c.BusNS + c.SpinNS + c.OtherNS
}

// Attribution splits a responder's post→ack latency into components.
// irqLatNS is the machine's interrupt latency (Profiler.IRQLatencyNS).
func (r *RespRecord) Attribution(irqLatNS int64) Components {
	var c Components
	if r.PostT == 0 || r.DeliverT == 0 || r.AckT == 0 {
		return c
	}
	pend := r.DeliverT - r.PostT
	c.IRQNS = irqLatNS
	if c.IRQNS > pend {
		c.IRQNS = pend
	}
	c.PendNS = pend - c.IRQNS
	window := r.AckT - r.DeliverT
	c.BusNS = r.AtAck.Of(PhaseBusStall) - r.AtDeliver.Of(PhaseBusStall)
	c.SpinNS = r.AtAck.Of(PhaseSpinLock) + r.AtAck.Of(PhaseSpinBarrier) -
		r.AtDeliver.Of(PhaseSpinLock) - r.AtDeliver.Of(PhaseSpinBarrier)
	c.DispatchNS = r.AtAck.Of(PhaseMasked) - r.AtDeliver.Of(PhaseMasked)
	c.OtherNS = window - c.BusNS - c.SpinNS - c.DispatchNS
	if c.OtherNS < 0 {
		c.OtherNS = 0
	}
	// Dominant-cause classification; ties resolve masked > dispatch > bus
	// so the verdict is deterministic.
	c.Why = "masked"
	if c.DispatchNS+c.OtherNS > c.PendNS {
		c.Why = "dispatch"
		if c.BusNS > c.DispatchNS+c.OtherNS {
			c.Why = "bus"
		}
	} else if c.BusNS > c.PendNS {
		c.Why = "bus"
	}
	return c
}

// ShootRecord is one shootdown instance's DAG.
type ShootRecord struct {
	Seq    int
	CPU    int // initiator
	Kernel bool
	Pages  int
	// StartT: Sync entry (the pmap is already locked). SendT: just before
	// the IPIs go out (member scan done, actions queued). WaitT: the
	// initiator starts spinning for acknowledgments. EndT: Sync returns.
	// SendT/WaitT are zero for local-only shootdowns.
	StartT, SendT, WaitT, EndT int64
	Resp                       []*RespRecord
}

// LastResponder returns the responder whose barrier arrival completed the
// shootdown (nil if none acked). Acks after the initiator returned (lazy
// release) don't count. Ties break toward the lower CPU id.
func (r *ShootRecord) LastResponder() *RespRecord {
	var last *RespRecord
	for _, rr := range r.Resp {
		if rr.AckT == 0 || (r.EndT != 0 && rr.AckT > r.EndT) {
			continue
		}
		if last == nil || rr.AckT > last.AckT || (rr.AckT == last.AckT && rr.CPU < last.CPU) {
			last = rr
		}
	}
	return last
}

// shootBegin opens a shootdown record for an initiator entering Sync.
func (p *Profiler) shootBegin(ts int64, cpu int, kernel bool, pages int) {
	rec := &ShootRecord{
		Seq:    len(p.records),
		CPU:    cpu,
		Kernel: kernel,
		Pages:  pages,
		StartT: p.rebased(ts),
	}
	p.records = append(p.records, rec)
	p.open[cpu] = rec
}

// shootExpect registers one responder of the initiator's set just before
// the IPIs go out, so subsequent machine/responder events can be matched
// to this instance.
func (p *Profiler) shootExpect(ts int64, cpu, waiter int) {
	rec := p.open[cpu]
	if rec == nil {
		return
	}
	rec.SendT = p.rebased(ts)
	rr := &RespRecord{CPU: waiter}
	rec.Resp = append(rec.Resp, rr)
	p.expecting[waiter] = append(p.expecting[waiter], rr)
}

// shootWait marks the initiator entering its acknowledgment spin loop.
// Responders whose IPI post was coalesced with an earlier in-flight IPI
// get their PostT backfilled here.
func (p *Profiler) shootWait(ts int64, cpu int) {
	rec := p.open[cpu]
	if rec == nil {
		return
	}
	rec.WaitT = p.rebased(ts)
	for _, rr := range rec.Resp {
		if rr.PostT == 0 {
			rr.PostT = rec.WaitT
			rr.AtPost = p.chargeCPU(rr.CPU, rec.WaitT).cum
		}
	}
}

// shootEnd closes the initiator's record. Responders it stopped waiting
// for (lazy release) keep zero AckT.
func (p *Profiler) shootEnd(ts int64, cpu int) {
	rec := p.open[cpu]
	if rec == nil {
		return
	}
	rec.EndT = p.rebased(ts)
	delete(p.open, cpu)
}

// ipiPosted records the machine latching a shootdown IPI on a target
// (called once per post; retries and coalesced posts don't move PostT).
func (p *Profiler) ipiPosted(ts int64, target int, masked bool) {
	rts := p.rebased(ts)
	for _, rr := range p.expecting[target] {
		if rr.PostT == 0 {
			rr.PostT = rts
			rr.MaskedAtPost = masked
			rr.AtPost = p.chargeCPU(target, rts).cum
		}
	}
}

// irqEnter records shootdown-interrupt entry on a responder.
func (p *Profiler) irqEnter(ts int64, cpu int) {
	rts := p.rebased(ts)
	for _, rr := range p.expecting[cpu] {
		if rr.PostT != 0 && rr.DeliverT == 0 {
			rr.DeliverT = rts
			rr.AtDeliver = p.chargeCPU(cpu, rts).cum
		}
	}
}

// respondAck records a responder clearing its active bit — the barrier
// arrival the initiator spins on. One interrupt can serve several crossed
// shootdowns, so every expectation without an ack is completed.
func (p *Profiler) respondAck(ts int64, cpu int) {
	rts := p.rebased(ts)
	for _, rr := range p.expecting[cpu] {
		if rr.AckT != 0 {
			continue
		}
		if rr.DeliverT == 0 {
			// Reached without an interrupt (e.g. idle-loop drain): the
			// responder discovered the shootdown by polling.
			rr.DeliverT = rts
			rr.AtDeliver = p.chargeCPU(cpu, rts).cum
		}
		rr.AckT = rts
		rr.AtAck = p.chargeCPU(cpu, rts).cum
	}
}

// respondDone records the responder finishing its queued actions and
// rejoining the active set; its expectations are complete.
func (p *Profiler) respondDone(ts int64, cpu int) {
	rts := p.rebased(ts)
	pending := p.expecting[cpu][:0]
	for _, rr := range p.expecting[cpu] {
		if rr.AckT != 0 && rr.FlushT == 0 {
			rr.FlushT = rts
			rr.AtFlush = p.chargeCPU(cpu, rts).cum
			continue
		}
		pending = append(pending, rr)
	}
	if len(pending) == 0 {
		delete(p.expecting, cpu)
	} else {
		p.expecting[cpu] = pending
	}
}

// Shootdowns returns every reconstructed record in begin order.
func (p *Profiler) Shootdowns() []*ShootRecord {
	if p == nil {
		return nil
	}
	return p.records
}

// CriticalPath is one shootdown's critical path: its sync split into
// four edges, and the responder whose acknowledgment ended the wait.
type CriticalPath struct {
	Rec ShootExport
	// SetupNS: Sync entry → IPIs out (member scan, action queueing, local
	// flush, all under the pmap lock). SendNS: IPIs out → spin entry.
	// WaitNS: spin entry → last ack. FinishNS: last ack → Sync return.
	// An edge the shootdown never reached is zero: a local-only shootdown
	// is all setup, and one the run ended mid-flight keeps the edges it
	// completed.
	SetupNS, SendNS, WaitNS, FinishNS int64
	// Last is the last responder (Rec.LastCPU) with its post→ack
	// attribution; nil if no responder acked before Sync returned.
	Last *RespExport
}

// SyncNS is the end-to-end latency the edges cover.
func (c CriticalPath) SyncNS() int64 { return c.SetupNS + c.SendNS + c.WaitNS + c.FinishNS }

// PathOf splits one exported shootdown, complete or not, into its
// critical-path edges. It is the one implementation of the split: the
// profiler's critical-path report, the profile experiment, and tlbtrace's
// dag and diff all read it.
func PathOf(r ShootExport) CriticalPath {
	c := CriticalPath{Rec: r}
	for i := range r.Responders {
		if resp := &r.Responders[i]; resp.CPU == r.LastCPU && resp.AckNS > 0 {
			c.Last = resp
		}
	}
	if r.SendNS > 0 {
		c.SetupNS = r.SendNS - r.StartNS
	} else if r.EndNS > 0 {
		c.SetupNS = r.EndNS - r.StartNS // local-only: the whole sync is setup
		return c
	}
	if r.WaitNS > 0 && r.SendNS > 0 {
		c.SendNS = r.WaitNS - r.SendNS
	}
	switch {
	case c.Last != nil && r.WaitNS > 0:
		c.WaitNS = max(c.Last.AckNS-r.WaitNS, 0)
		if r.EndNS > 0 {
			c.FinishNS = r.EndNS - c.Last.AckNS
		}
	case r.EndNS > 0 && r.WaitNS > 0:
		c.WaitNS = r.EndNS - r.WaitNS
	}
	return c
}

// CriticalPaths returns the critical path of every completed shootdown
// that had at least one acknowledged responder, in begin order.
func (p *Profiler) CriticalPaths() []CriticalPath {
	var out []CriticalPath
	for _, r := range ExportShootdowns(p).Records {
		if r.EndNS > 0 && r.LastCPU >= 0 {
			out = append(out, PathOf(r))
		}
	}
	return out
}
