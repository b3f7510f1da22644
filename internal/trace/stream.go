package trace

// The observation stream. A kernel's engine carries one *Tracer and every
// layer emits into it: the ring stores events, the sink (the virtual-time
// profiler) receives the typed events it subscribed to, and the flight
// recorder shares the ring and is tripped through the stream. Begin, End
// and Instant record untyped events only the ring consumes; Emit records
// a typed event whose Kind fixes its category and phase, and hands the
// sink its arguments as they are. The kinds from
// KindRun on carry facts only a subscriber needs (lock waits, bus sites,
// IPL mask edges) and the ring never stores them, so traces and black
// boxes are the same with or without a subscriber.

// Kind is a stream event's meaning to subscribers.
type Kind uint8

// Event kinds. Arg1 and Arg2 are as noted; otherwise as in the ring.
const (
	KindNone          Kind = iota // untyped (Begin, End, Instant)
	KindIdle                      // "idle" begins: the CPU polls for work
	KindDispatch                  // "idle" ends: the idle loop dispatched a thread
	KindCPUFail                   // a processor fail-stopped
	KindCPUOnline                 // a failed processor came back online
	KindDevQuarantine             // a device was fail-stopped (its own timeline)
	KindIRQ                       // interrupt entry, other than the shootdown IPI
	KindIRQIPI                    // shootdown-interrupt entry on a responder
	KindBusWait                   // a bus transaction queued Arg1 ns (inside KindBusBegin/End)
	KindSyncBegin                 // the initiator's Sync: Arg1 pages, Arg2 1 for the kernel pmap
	KindSyncEnd                   // Sync returns
	KindWaitBegin                 // the initiator spins for acknowledgments
	KindStallBegin                // a responder acknowledged and stalls for the pmap update
	KindDevWaitBegin              // the initiator waits for device completions
	KindSpinEnd                   // a wait, stall or dev-wait spin ends
	KindRespondEnd                // a responder finished its queued actions

	KindRun         // a run begins (BeginRun): Arg1 the interrupt latency in ns
	KindRunEnd      // the run ended at TS
	KindExpect      // the initiator will await responder Arg1 (one per responder, before any IPI)
	KindIPIPost     // a shootdown IPI was posted, fresh or coalescing: Arg1 the target's IPL, Arg2 the IPI's priority
	KindMask        // the IPL crossed the IPI's priority: Arg1 the new IPL, Arg2 the priority
	KindLockSpin    // the CPU starts spinning on contended lock Name
	KindLockAcquire // lock Name taken after Arg1 ns of spinning (nonzero ends the spin)
	KindLockRelease // lock Name released after Arg1 ns held
	KindBusBegin    // the CPU stalls issuing Arg1 bus transactions from call site Name
	KindBusEnd      // the bus stall ends
)

// ringShape is the category and phase the ring stores each kind with.
var ringShape = [KindRun]struct {
	cat Category
	ph  Phase
}{
	KindIdle:          {CatKernel, PhaseBegin},
	KindDispatch:      {CatKernel, PhaseEnd},
	KindCPUFail:       {CatMachine, PhaseInstant},
	KindCPUOnline:     {CatMachine, PhaseInstant},
	KindDevQuarantine: {CatDevice, PhaseInstant},
	KindIRQ:           {CatMachine, PhaseBegin},
	KindIRQIPI:        {CatMachine, PhaseBegin},
	KindBusWait:       {CatMachine, PhaseInstant},
	KindSyncBegin:     {CatShootdown, PhaseBegin},
	KindSyncEnd:       {CatShootdown, PhaseEnd},
	KindWaitBegin:     {CatShootdown, PhaseBegin},
	KindStallBegin:    {CatShootdown, PhaseBegin},
	KindDevWaitBegin:  {CatShootdown, PhaseBegin},
	KindSpinEnd:       {CatShootdown, PhaseEnd},
	KindRespondEnd:    {CatShootdown, PhaseEnd},
}

// KindSet is a set of kinds, one bit per kind.
type KindSet uint64

// Kinds returns the set holding ks.
func Kinds(ks ...Kind) KindSet {
	var s KindSet
	for _, k := range ks {
		s |= 1 << k
	}
	return s
}

// Sink is a stream subscriber. Stream asks it once for the kinds it
// consumes; the stream then calls Observe, in emission order, for every
// event of those kinds, whether or not the ring is recording. Observe gets
// Emit's arguments as they are: the raw virtual timestamp (before the
// ring's rebasing), the timeline, and the kind's name and arguments. It
// must not perturb the simulation.
//
// Observe takes scalars rather than an Event because an Event plus the
// interface receiver needs ten integer registers and amd64 passes nine:
// the event would go through memory on every call, and its wide reload
// after narrow stores stalls on store forwarding.
type Sink interface {
	Kinds() KindSet
	Observe(k Kind, ts int64, cpu int, name string, a1, a2 int64)
}

// Stream assembles the one observation stream a kernel, or a bare machine,
// emits into: ring tr or, when tr is nil, the flight recorder's own ring,
// with fr tripped through it and sink subscribed to the kinds it consumes.
// With only a sink, the stream stores nothing itself. Any argument may be
// nil, and a sink that consumes no kinds (a nil profiler) counts as none;
// with all three absent Stream returns nil, the observation-off stream. A
// session passes the same objects for every kernel: Stream rewires them.
func Stream(tr *Tracer, fr *Recorder, sink Sink) *Tracer {
	var kinds KindSet
	if sink != nil {
		kinds = sink.Kinds()
	}
	if kinds == 0 {
		sink = nil
	}
	switch {
	case tr != nil:
		fr.AttachRing(tr)
	case fr != nil:
		tr = fr.Ring()
	case sink != nil:
		tr = &Tracer{}
	default:
		return nil
	}
	tr.sink, tr.kinds, tr.flight = sink, kinds, fr
	return tr
}

// Emit records one typed event at raw virtual time ts on the cpu timeline:
// the sink receives it if it consumes k, and the ring stores it unless k
// is subscriber-only.
func (t *Tracer) Emit(k Kind, ts int64, cpu int, name string, a1, a2 int64) {
	if t == nil {
		return
	}
	if t.kinds&(1<<k) != 0 {
		t.sink.Observe(k, ts, cpu, name, a1, a2)
	}
	if k < KindRun && t.events != nil {
		e := t.slot(ts)
		e.CPU, e.Cat, e.Ph, e.Name, e.Arg1, e.Arg2 = int32(cpu), ringShape[k].cat, ringShape[k].ph, name, a1, a2
	}
}

// BeginRun starts a run on a session stream: the flight recorder drops the
// previous run's state providers, the ring rebases onto a fresh epoch
// (Rebase), and the sink receives KindRun.
func (t *Tracer) BeginRun(label string, irqLatencyNS int64) {
	if t == nil {
		return
	}
	t.flight.BeginRun()
	t.Rebase(label)
	t.Emit(KindRun, 0, -1, "", irqLatencyNS, 0)
}

// Trip trips the stream's flight recorder (Recorder.Trip), if it has one.
func (t *Tracer) Trip(ts int64, reason, detail string) {
	if t != nil {
		t.flight.Trip(ts, reason, detail)
	}
}

// Flight returns the stream's flight recorder (possibly nil).
func (t *Tracer) Flight() *Recorder {
	if t == nil {
		return nil
	}
	return t.flight
}

// Sink returns the stream's subscriber (possibly nil).
func (t *Tracer) Sink() Sink {
	if t == nil {
		return nil
	}
	return t.sink
}
