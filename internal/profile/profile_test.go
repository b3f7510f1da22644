package profile

import (
	"bytes"
	"strings"
	"testing"

	"shootdown/internal/trace"
)

// emit feeds the profiler one stream event, as a kernel's stream does.
func emit(p *Profiler, k trace.Kind, ts int64, cpu int, name string, a1, a2 int64) {
	p.Observe(k, ts, cpu, name, a1, a2)
}

// ipl levels for mask edges: the IPI's priority, and a level above it.
const ipiPrio, masked, unmasked = 1, 1, 0

// TestFoldedAttribution drives a synthetic phase schedule and checks that
// every nanosecond lands on the right stack cell.
func TestFoldedAttribution(t *testing.T) {
	p := New()
	p.setBase(0, 0, PhaseIdle)  // activates cpu0 at t=0
	p.setBase(100, 0, PhaseRun) // 100ns idle
	p.Push(300, 0, PhaseMasked) // 200ns run
	p.Push(350, 0, PhaseSpinLock)
	p.Pop(500, 0, PhaseSpinLock) // 150ns run;ipl-masked;spin-lock
	p.Pop(600, 0, PhaseMasked)   // 50+100ns run;ipl-masked
	p.finishAt(1000)             // 400ns run

	want := map[string]int64{
		"cpu00;idle":                     100,
		"cpu00;run":                      200 + 400,
		"cpu00;run;ipl-masked":           50 + 100,
		"cpu00;run;ipl-masked;spin-lock": 150,
	}
	got := map[string]int64{}
	var sum int64
	for _, c := range p.Folded() {
		got[c.Stack] = c.NS
		sum += c.NS
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("stack %q = %d ns, want %d", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %d stacks %v, want %d", len(got), got, len(want))
	}
	if sum != 1000 {
		t.Errorf("total charged %d ns, want 1000 (every tick attributed exactly once)", sum)
	}
	tot := p.cpus[0].cum
	if tot.Of(PhaseRun) != 600 || tot.Of(PhaseMasked) != 150 || tot.Of(PhaseSpinLock) != 150 || tot.Of(PhaseIdle) != 100 {
		t.Errorf("leaf totals wrong: %+v", tot)
	}
}

// TestTimelineBuckets checks that bucketed timeline cells sum to the same
// time the folded stacks account for, split at bucket boundaries.
func TestTimelineBuckets(t *testing.T) {
	p := New()
	p.BucketNS = 1000
	p.setBase(0, 0, PhaseRun)
	p.Push(2500, 0, PhaseBusStall) // crosses buckets 2→3
	p.Pop(3500, 0, PhaseBusStall)
	p.finishAt(4000)

	var b bytes.Buffer
	if err := p.WriteTimeline(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if lines[0] != "bucket_start_us,cpu,phase,ns" {
		t.Fatalf("bad header %q", lines[0])
	}
	var runNS, busNS int64
	for _, l := range lines[1:] {
		f := strings.Split(l, ",")
		if len(f) != 4 {
			t.Fatalf("bad row %q", l)
		}
		var ns int64
		if _, err := fmtSscan(f[3], &ns); err != nil {
			t.Fatal(err)
		}
		switch f[2] {
		case "run":
			runNS += ns
		case "bus-stall":
			busNS += ns
		}
	}
	if runNS != 3000 || busNS != 1000 {
		t.Errorf("timeline sums run=%d bus=%d, want 3000/1000", runNS, busNS)
	}
}

// fmtSscan keeps the strconv dependency out of the test's way.
func fmtSscan(s string, v *int64) (int, error) {
	n := int64(0)
	for _, r := range s {
		if r < '0' || r > '9' {
			break
		}
		n = n*10 + int64(r-'0')
	}
	*v = n
	return 1, nil
}

// TestUnmatchedPopIgnored checks robustness against pops with no matching
// push (and pops of the base phase).
func TestUnmatchedPopIgnored(t *testing.T) {
	p := New()
	p.setBase(0, 0, PhaseRun)
	p.Pop(100, 0, PhaseSpinLock) // no matching push: ignored
	p.Pop(200, 0, PhaseRun)      // base phase is not poppable
	p.finishAt(300)
	tot := p.cpus[0].cum
	if tot.Of(PhaseRun) != 300 {
		t.Errorf("run = %d, want 300", tot.Of(PhaseRun))
	}
}

// TestMaskedEdges checks mask edges are edge-triggered and idempotent per
// direction.
func TestMaskedEdges(t *testing.T) {
	p := New()
	p.setBase(0, 0, PhaseRun)
	emit(p, trace.KindMask, 100, 0, "", masked, ipiPrio)
	emit(p, trace.KindMask, 400, 0, "", unmasked, ipiPrio)
	emit(p, trace.KindMask, 500, 0, "", unmasked, ipiPrio) // redundant unmask: no effect
	p.finishAt(600)
	tot := p.cpus[0].cum
	if tot.Of(PhaseMasked) != 300 {
		t.Errorf("masked = %d, want 300", tot.Of(PhaseMasked))
	}
	if tot.Of(PhaseRun) != 300 {
		t.Errorf("run = %d, want 300", tot.Of(PhaseRun))
	}
}

// TestRebaseIsolatesKernels checks that sequential kernel runs occupy
// disjoint stretches of one session profile, and that CPUs of a finished
// kernel stop accumulating idle time.
func TestRebaseIsolatesKernels(t *testing.T) {
	p := New()
	p.setBase(0, 0, PhaseRun)
	p.setBase(0, 1, PhaseIdle)
	p.finishAt(1000)
	p.rebase()
	// Second kernel uses only cpu0, starting its local clock at 0.
	p.setBase(0, 0, PhaseRun)
	p.finishAt(500)

	if got := p.cpus[0].cum.Of(PhaseRun); got != 1500 {
		t.Errorf("cpu0 run = %d, want 1500", got)
	}
	// cpu1 must not have accumulated anything past the first kernel.
	if got := p.cpus[1].cum; got.Of(PhaseIdle) != 1000 {
		t.Errorf("cpu1 idle = %d, want 1000 (no phantom time after rebase)", got.Of(PhaseIdle))
	}
}

// TestContentionProfiles checks the lock and bus-site histograms.
func TestContentionProfiles(t *testing.T) {
	p := New()
	emit(p, trace.KindLockAcquire, 0, 0, "pmap:1", 0, 0)
	emit(p, trace.KindLockAcquire, 0, 0, "pmap:1", 5000, 0)
	emit(p, trace.KindLockRelease, 0, 0, "pmap:1", 2000, 0)
	emit(p, trace.KindLockAcquire, 0, 0, "sched", 3000, 0)
	emit(p, trace.KindBusBegin, 0, 0, "store", 4, 0)
	emit(p, trace.KindBusWait, 0, 0, "bus-wait", 1200, 0)
	emit(p, trace.KindBusEnd, 0, 0, "", 0, 0)

	l := p.locks["pmap:1"]
	if l == nil || l.Contended != 1 {
		t.Fatalf("pmap:1 profile wrong: %+v", l)
	}
	if l.Wait.Count() != 2 || l.Hold.Count() != 1 {
		t.Errorf("pmap:1 wait/hold counts = %d/%d, want 2/1", l.Wait.Count(), l.Hold.Count())
	}
	b := p.bus["store"]
	if b == nil || b.Txns != 4 || b.Contended != 1 {
		t.Fatalf("store bus profile wrong: %+v", b)
	}
	if s := p.locks["sched"]; s == nil || s.Contended != 1 || s.Wait.Count() != 1 {
		t.Errorf("sched profile wrong: %+v", s)
	}
}

// TestCausalReconstruction drives the full event sequence of one two-
// responder shootdown and checks the DAG, attribution, and critical path.
func TestCausalReconstruction(t *testing.T) {
	p := New()
	emit(p, trace.KindRun, 0, -1, "", 8, 0) // 8ns interrupt latency
	for cpu := 0; cpu < 3; cpu++ {
		p.setBase(0, cpu, PhaseRun)
	}

	emit(p, trace.KindSyncBegin, 100, 0, "shootdown-sync", 3, 0)
	emit(p, trace.KindExpect, 150, 0, "", 1, 0)
	emit(p, trace.KindExpect, 150, 0, "", 2, 0)
	emit(p, trace.KindIPIPost, 150, 1, "", unmasked, ipiPrio)
	emit(p, trace.KindIPIPost, 150, 2, "", masked, ipiPrio) // cpu2 had IPIs masked at post time
	emit(p, trace.KindWaitBegin, 160, 0, "shootdown-wait", 2, 0)

	// cpu1 responds quickly: 8ns irq latency, then masked dispatch.
	emit(p, trace.KindMask, 158, 1, "", masked, ipiPrio)
	emit(p, trace.KindIRQIPI, 158, 1, "irq-ipi", 0, 0)
	emit(p, trace.KindStallBegin, 200, 1, "shootdown-stall", 0, 0)
	// cpu2 was masked for 92ns before delivery.
	emit(p, trace.KindMask, 242, 2, "", masked, ipiPrio)
	emit(p, trace.KindIRQIPI, 242, 2, "irq-ipi", 0, 0)
	emit(p, trace.KindStallBegin, 300, 2, "shootdown-stall", 0, 0)

	emit(p, trace.KindSyncEnd, 310, 0, "shootdown-sync", 0, 0)
	emit(p, trace.KindRespondEnd, 320, 1, "shootdown-respond", 0, 0)
	emit(p, trace.KindMask, 320, 1, "", unmasked, ipiPrio)
	emit(p, trace.KindRespondEnd, 330, 2, "shootdown-respond", 0, 0)
	emit(p, trace.KindMask, 330, 2, "", unmasked, ipiPrio)
	emit(p, trace.KindRunEnd, 400, -1, "", 0, 0)

	recs := p.Shootdowns()
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	r := recs[0]
	if r.CPU != 0 || r.Kernel || r.Pages != 3 || r.StartT != 100 || r.SendT != 150 || r.WaitT != 160 || r.EndT != 310 {
		t.Fatalf("record wrong: %+v", r)
	}
	if len(r.Resp) != 2 {
		t.Fatalf("got %d responders, want 2", len(r.Resp))
	}
	last := r.LastResponder()
	if last == nil || last.CPU != 2 {
		t.Fatalf("last responder = %+v, want cpu2", last)
	}
	if !last.MaskedAtPost || last.DeliverT != 242 || last.AckT != 300 || last.FlushT != 330 {
		t.Fatalf("cpu2 record wrong: %+v", last)
	}
	comp := last.Attribution(p.IRQLatencyNS())
	if comp.IRQNS != 8 {
		t.Errorf("irq = %d, want 8", comp.IRQNS)
	}
	if comp.PendNS != 242-150-8 {
		t.Errorf("pend = %d, want %d", comp.PendNS, 242-150-8)
	}
	if comp.DispatchNS != 300-242 {
		t.Errorf("dispatch = %d, want %d", comp.DispatchNS, 300-242)
	}
	if comp.Why != "masked" {
		t.Errorf("why = %q, want masked", comp.Why)
	}
	if got := comp.TotalNS(); got != last.AckT-last.PostT {
		t.Errorf("components sum to %d, want %d", got, last.AckT-last.PostT)
	}

	cps := p.CriticalPaths()
	if len(cps) != 1 {
		t.Fatalf("got %d critical paths, want 1", len(cps))
	}
	cp := cps[0]
	if cp.SetupNS != 50 || cp.SendNS != 10 || cp.WaitNS != 140 || cp.FinishNS != 10 {
		t.Errorf("critical path wrong: %+v", cp)
	}
	if cp.SyncNS() != cp.SetupNS+cp.SendNS+cp.WaitNS+cp.FinishNS {
		t.Errorf("critical path does not cover the sync: %+v", cp)
	}
}

// TestLateAckIgnoredForLast checks that a responder acking after the
// initiator already returned (lazy release) is not reported as the
// responder the initiator waited for.
func TestLateAckIgnoredForLast(t *testing.T) {
	p := New()
	emit(p, trace.KindSyncBegin, 0, 0, "shootdown-sync", 1, 0)
	emit(p, trace.KindExpect, 10, 0, "", 1, 0)
	emit(p, trace.KindExpect, 10, 0, "", 2, 0)
	emit(p, trace.KindIPIPost, 10, 1, "", unmasked, ipiPrio)
	emit(p, trace.KindIPIPost, 10, 2, "", unmasked, ipiPrio)
	emit(p, trace.KindIRQIPI, 20, 1, "irq-ipi", 0, 0)
	emit(p, trace.KindStallBegin, 50, 1, "shootdown-stall", 0, 0)
	emit(p, trace.KindSyncEnd, 60, 0, "shootdown-sync", 0, 0) // initiator returns; cpu2 never acked in time
	emit(p, trace.KindIRQIPI, 70, 2, "irq-ipi", 0, 0)
	emit(p, trace.KindStallBegin, 80, 2, "shootdown-stall", 0, 0) // late ack
	last := p.Shootdowns()[0].LastResponder()
	if last == nil || last.CPU != 1 {
		t.Fatalf("last responder = %+v, want cpu1 (cpu2 acked after the initiator returned)", last)
	}
}

// TestPathOfLocalOnly checks that a local-only shootdown charges its whole
// sync to setup.
func TestPathOfLocalOnly(t *testing.T) {
	c := PathOf(ShootExport{Seq: 0, CPU: 1, StartNS: 100, EndNS: 400, LastCPU: -1})
	if c.SetupNS != 300 || c.SendNS != 0 || c.WaitNS != 0 || c.FinishNS != 0 || c.Last != nil {
		t.Fatalf("local-only edges = %+v, want setup 300 only", c)
	}
}

// TestPathOfMidFlight checks that a shootdown the run ended mid-flight
// keeps the edges it completed, and that CriticalPaths leaves it out.
func TestPathOfMidFlight(t *testing.T) {
	r := ShootExport{StartNS: 100, SendNS: 150, WaitNS: 160, LastCPU: 2,
		Responders: []RespExport{{CPU: 1}, {CPU: 2, PostNS: 150, AckNS: 300}}}
	c := PathOf(r)
	if c.SetupNS != 50 || c.SendNS != 10 || c.WaitNS != 140 || c.FinishNS != 0 || c.Last == nil || c.Last.CPU != 2 {
		t.Fatalf("acked mid-flight edges = %+v, want 50/10/140/0 with cpu2 last", c)
	}
	r.LastCPU, r.Responders[1].AckNS = -1, 0
	if c := PathOf(r); c.SetupNS != 50 || c.SendNS != 10 || c.WaitNS != 0 || c.Last != nil {
		t.Fatalf("unacked mid-flight edges = %+v, want 50/10/0/0 and no last responder", c)
	}

	p := New()
	emit(p, trace.KindSyncBegin, 0, 0, "shootdown-sync", 1, 0)
	emit(p, trace.KindExpect, 10, 0, "", 1, 0)
	if cps := p.CriticalPaths(); len(cps) != 0 {
		t.Fatalf("mid-flight shootdown has a critical path: %+v", cps)
	}
}

// TestNilProfilerSafe checks the exported methods are no-ops on a nil
// receiver, and that a nil profiler consumes no kinds, so a stream never
// subscribes it.
func TestNilProfilerSafe(t *testing.T) {
	var p *Profiler
	p.Push(0, 0, PhaseMasked)
	p.Pop(0, 0, PhaseMasked)
	if p.NumCPUs() != 0 || p.IRQLatencyNS() != 0 || p.Shootdowns() != nil || p.Folded() != nil {
		t.Error("nil profiler reads must return zero values")
	}
	if p.Kinds() != 0 || trace.Stream(nil, nil, p) != nil {
		t.Error("a nil profiler must not be subscribed to a stream")
	}
}

// TestFoldedDeterministicOrder checks Folded emits a stable, sorted order
// regardless of map iteration.
func TestFoldedDeterministicOrder(t *testing.T) {
	build := func() string {
		p := New()
		for cpu := 0; cpu < 4; cpu++ {
			p.setBase(0, cpu, PhaseRun)
			p.Push(int64(10*cpu+10), cpu, PhaseMasked)
			p.Pop(int64(10*cpu+20), cpu, PhaseMasked)
			p.Push(int64(10*cpu+30), cpu, PhaseBusStall)
			p.Pop(int64(10*cpu+40), cpu, PhaseBusStall)
		}
		p.finishAt(500)
		var b bytes.Buffer
		if err := p.WriteFolded(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a, b := build(), build()
	if a != b {
		t.Fatalf("folded output not deterministic:\n%s\nvs\n%s", a, b)
	}
	lines := strings.Split(strings.TrimSpace(a), "\n")
	for i := 1; i < len(lines); i++ {
		ka := lines[i-1][:strings.LastIndexByte(lines[i-1], ' ')]
		kb := lines[i][:strings.LastIndexByte(lines[i], ' ')]
		if ka >= kb {
			t.Fatalf("folded stacks not sorted: %q before %q", ka, kb)
		}
	}
}
