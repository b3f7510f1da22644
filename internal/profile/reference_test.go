package profile

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"shootdown/internal/trace"
)

// refProfiler is the reference model of the phase and contention
// accounting: each CPU's stacks are keyed one nibble per level into a map
// of cells, its timeline buckets are looked up in a map on every charge,
// and every lock or bus-site event looks its profile up by name. Profiler
// caches the cell, the bucket and the last profile per CPU instead; the
// equivalence test below checks that the caches change nothing.
type refProfiler struct {
	bucketNS     int64
	epoch, maxTS int64
	cpus         []*refCPU
	locks, bus   map[string]*ContentionProfile
}

type refCPU struct {
	active  bool
	last    int64
	stack   []Phase
	key     uint64
	cells   map[uint64]int64
	cum     PhaseTotals
	buckets map[int64]*PhaseTotals
	bus     *ContentionProfile
}

func newRef(bucketNS int64) *refProfiler {
	return &refProfiler{bucketNS: bucketNS, locks: map[string]*ContentionProfile{}, bus: map[string]*ContentionProfile{}}
}

// observe is Profiler.Observe restricted to the kinds refStream emits.
func (r *refProfiler) observe(k trace.Kind, ts int64, cpu int, name string, a1, a2 int64) {
	switch k {
	case trace.KindRun:
		for _, cs := range r.cpus {
			if cs != nil && cs.active {
				r.charge(cs, r.maxTS)
				cs.active = false
			}
		}
		r.epoch = r.maxTS
	case trace.KindRunEnd:
		rts := r.rebased(ts)
		for _, cs := range r.cpus {
			if cs != nil && cs.active {
				r.charge(cs, rts)
			}
		}
	case trace.KindIdle:
		r.setBase(ts, cpu, PhaseIdle)
	case trace.KindDispatch:
		r.setBase(ts, cpu, PhaseRun)
	case trace.KindCPUFail, trace.KindDevQuarantine:
		r.reset(ts, cpu, PhaseHalted)
	case trace.KindCPUOnline:
		r.reset(ts, cpu, PhaseIdle)
	case trace.KindMask:
		if a1 >= a2 {
			r.push(ts, cpu, PhaseMasked)
		} else {
			r.pop(ts, cpu, PhaseMasked)
		}
	case trace.KindLockSpin:
		r.push(ts, cpu, PhaseSpinLock)
	case trace.KindLockAcquire:
		c := contention(r.locks, name)
		c.Wait.Observe(float64(a1))
		if a1 > 0 {
			c.Contended++
			r.pop(ts, cpu, PhaseSpinLock)
		}
	case trace.KindLockRelease:
		contention(r.locks, name).Hold.Observe(float64(a1))
	case trace.KindBusBegin:
		c := contention(r.bus, name)
		c.Txns += uint64(a1)
		r.push(ts, cpu, PhaseBusStall)
		r.cpus[cpu].bus = c
	case trace.KindBusWait:
		c := r.cpus[cpu].bus
		c.Wait.Observe(float64(a1))
		c.Contended++
	case trace.KindBusEnd:
		r.pop(ts, cpu, PhaseBusStall)
	case trace.KindWaitBegin, trace.KindStallBegin, trace.KindDevWaitBegin:
		r.push(ts, cpu, PhaseSpinBarrier)
	case trace.KindSpinEnd:
		r.pop(ts, cpu, PhaseSpinBarrier)
	default:
		panic(fmt.Sprintf("reference profiler: kind %d not modelled", k))
	}
}

func (r *refProfiler) rebased(ts int64) int64 {
	rts := ts + r.epoch
	if rts > r.maxTS {
		r.maxTS = rts
	}
	return rts
}

func (r *refProfiler) cpu(i int) *refCPU {
	for len(r.cpus) <= i {
		r.cpus = append(r.cpus, nil)
	}
	cs := r.cpus[i]
	if cs == nil {
		cs = &refCPU{cells: map[uint64]int64{}, buckets: map[int64]*PhaseTotals{}}
		r.cpus[i] = cs
	}
	if !cs.active {
		cs.active = true
		cs.last = r.epoch
		cs.stack = append(cs.stack[:0], PhaseIdle)
		cs.rekey()
	}
	return cs
}

func (cs *refCPU) rekey() {
	var k uint64
	for i, ph := range cs.stack {
		if i >= maxDepth {
			break
		}
		k |= uint64(ph+1) << (4 * uint(i))
	}
	cs.key = k
}

func (r *refProfiler) charge(cs *refCPU, rts int64) {
	d := rts - cs.last
	if d <= 0 {
		return
	}
	cs.cells[cs.key] += d
	leaf := cs.stack[len(cs.stack)-1]
	cs.cum[leaf] += d
	for t := cs.last; t < rts; {
		b := t / r.bucketNS
		end := min((b+1)*r.bucketNS, rts)
		bt := cs.buckets[b]
		if bt == nil {
			bt = &PhaseTotals{}
			cs.buckets[b] = bt
		}
		bt[leaf] += end - t
		t = end
	}
	cs.last = rts
}

func (r *refProfiler) charged(ts int64, cpu int) *refCPU {
	cs := r.cpu(cpu)
	r.charge(cs, r.rebased(ts))
	return cs
}

func (r *refProfiler) setBase(ts int64, cpu int, base Phase) {
	cs := r.charged(ts, cpu)
	cs.stack[0] = base
	cs.rekey()
}

func (r *refProfiler) push(ts int64, cpu int, ph Phase) {
	cs := r.charged(ts, cpu)
	cs.stack = append(cs.stack, ph)
	cs.rekey()
}

func (r *refProfiler) pop(ts int64, cpu int, ph Phase) {
	cs := r.charged(ts, cpu)
	for i := len(cs.stack) - 1; i > 0; i-- {
		if cs.stack[i] == ph {
			cs.stack = append(cs.stack[:i], cs.stack[i+1:]...)
			cs.rekey()
			return
		}
	}
}

func (r *refProfiler) reset(ts int64, cpu int, base Phase) {
	cs := r.charged(ts, cpu)
	cs.stack = append(cs.stack[:0], base)
	cs.rekey()
}

func (r *refProfiler) folded() []FoldedCell {
	var out []FoldedCell
	for i, cs := range r.cpus {
		if cs == nil {
			continue
		}
		for k, ns := range cs.cells {
			var parts []string
			for ; k != 0; k >>= 4 {
				parts = append(parts, Phase(k&0xf-1).String())
			}
			out = append(out, FoldedCell{Stack: fmt.Sprintf("cpu%02d;%s", i, strings.Join(parts, ";")), NS: ns})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Stack < out[b].Stack })
	return out
}

func (r *refProfiler) totals() PhaseTotals {
	var out PhaseTotals
	for _, cs := range r.cpus {
		if cs != nil {
			for i := range out {
				out[i] += cs.cum[i]
			}
		}
	}
	return out
}

// timeline flattens per-CPU timeline buckets for comparison: cpu → bucket
// → leaf-phase ns.
func timeline(buckets func(cpu int) map[int64]*PhaseTotals, ncpu int) map[int]map[int64]PhaseTotals {
	out := map[int]map[int64]PhaseTotals{}
	for cpu := 0; cpu < ncpu; cpu++ {
		for b, bt := range buckets(cpu) {
			if out[cpu] == nil {
				out[cpu] = map[int64]PhaseTotals{}
			}
			out[cpu][b] = *bt
		}
	}
	return out
}

// refStream emits n seeded random events to emit: several CPUs, one of
// which only takes and releases locks; overlay stacks that burst past
// maxDepth; pops of phases that are not on top; fail-stops, quarantines
// and returns online; and two rebases (KindRun) after the first, each
// restarting raw time at zero. The bus waits of a stall are emitted only
// inside one.
func refStream(seed int64, n int, emit func(k trace.Kind, ts int64, cpu int, name string, a1, a2 int64)) {
	const ncpu = 4 // plus lockOnly
	const lockOnly = ncpu
	rng := rand.New(rand.NewSource(seed))
	locks := []string{"pmap:1", "pmap:2", "sched", "vm"}
	sites := []string{"store", "load", "tlb-refill"}
	pushKinds := []trace.Kind{trace.KindLockSpin, trace.KindBusBegin, trace.KindWaitBegin,
		trace.KindStallBegin, trace.KindDevWaitBegin, trace.KindMask}
	var now int64
	inBus := make([]bool, ncpu)
	push := func(k trace.Kind, cpu int) {
		switch k {
		case trace.KindBusBegin:
			emit(k, now, cpu, sites[rng.Intn(len(sites))], 1+rng.Int63n(4), 0)
			inBus[cpu] = true
		case trace.KindMask:
			emit(k, now, cpu, "", masked, ipiPrio)
		default:
			emit(k, now, cpu, "", 0, 0)
		}
	}
	emit(trace.KindRun, 0, -1, "", 8, 0)
	for i := 0; i < n; i++ {
		if i == n/3 || i == 2*n/3 {
			emit(trace.KindRunEnd, now, -1, "", 0, 0)
			emit(trace.KindRun, 0, -1, "", 8, 0)
			now = 0
		}
		if rng.Intn(4) > 0 {
			now += rng.Int63n(400)
		}
		cpu := rng.Intn(ncpu)
		switch r := rng.Intn(100); {
		case r < 10:
			emit(trace.KindIdle, now, cpu, "", 0, 0)
		case r < 20:
			emit(trace.KindDispatch, now, cpu, "", 0, 0)
		case r < 22:
			emit([]trace.Kind{trace.KindCPUFail, trace.KindDevQuarantine, trace.KindCPUOnline}[rng.Intn(3)], now, cpu, "", 0, 0)
		case r < 24:
			for j := 0; j < maxDepth; j++ { // a burst past maxDepth
				push(pushKinds[rng.Intn(len(pushKinds))], cpu)
				now += rng.Int63n(50)
			}
		case r < 44:
			push(pushKinds[rng.Intn(len(pushKinds))], cpu)
		case r < 50:
			emit(trace.KindMask, now, cpu, "", unmasked, ipiPrio)
		case r < 56:
			emit(trace.KindSpinEnd, now, cpu, "", 0, 0)
		case r < 62:
			emit(trace.KindBusEnd, now, cpu, "", 0, 0)
		case r < 68:
			if inBus[cpu] {
				emit(trace.KindBusWait, now, cpu, "bus-wait", rng.Int63n(2000), 0)
			}
		case r < 80:
			wait := int64(0)
			if rng.Intn(2) == 0 {
				wait = 1 + rng.Int63n(5000)
			}
			emit(trace.KindLockAcquire, now, cpu, locks[rng.Intn(len(locks))], wait, 0)
		case r < 88:
			emit(trace.KindLockRelease, now, cpu, locks[rng.Intn(len(locks))], rng.Int63n(9000), 0)
		default:
			k := []trace.Kind{trace.KindLockAcquire, trace.KindLockRelease}[rng.Intn(2)]
			emit(k, now, lockOnly, locks[rng.Intn(len(locks))], 0, 0)
		}
	}
	emit(trace.KindRunEnd, now, -1, "", 0, 0)
}

// TestProfilerMatchesReference drives Profiler and the map-keyed reference
// with the same random streams and compares the folded stacks, the
// timeline, the leaf totals and the contention profiles, every few
// hundred events and at the end.
func TestProfilerMatchesReference(t *testing.T) {
	const bucketNS = 700 // a few events per bucket, so charges cross them
	for seed := int64(1); seed <= 12; seed++ {
		p := New()
		p.BucketNS = bucketNS
		ref := newRef(bucketNS)
		events := 0
		check := func() {
			t.Helper()
			if got, want := p.Folded(), ref.folded(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, event %d: folded stacks\n got %v\nwant %v", seed, events, got, want)
			}
			got := timeline(func(cpu int) map[int64]*PhaseTotals {
				if cpu < len(p.cpus) && p.cpus[cpu] != nil {
					return p.cpus[cpu].buckets
				}
				return nil
			}, len(ref.cpus))
			want := timeline(func(cpu int) map[int64]*PhaseTotals { return ref.cpus[cpu].buckets }, len(ref.cpus))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, event %d: timeline\n got %v\nwant %v", seed, events, got, want)
			}
			if got, want := p.Totals(), ref.totals(); got != want {
				t.Fatalf("seed %d, event %d: totals %v, want %v", seed, events, got, want)
			}
			if !reflect.DeepEqual(p.locks, ref.locks) || !reflect.DeepEqual(p.bus, ref.bus) {
				t.Fatalf("seed %d, event %d: contention profiles differ", seed, events)
			}
		}
		refStream(seed, 3000, func(k trace.Kind, ts int64, cpu int, name string, a1, a2 int64) {
			p.Observe(k, ts, cpu, name, a1, a2)
			ref.observe(k, ts, cpu, name, a1, a2)
			if events++; events%250 == 0 {
				check()
			}
		})
		check()
		var deep bool
		for _, c := range ref.folded() {
			deep = deep || strings.Count(c.Stack, ";") == maxDepth
		}
		if !deep {
			t.Errorf("seed %d: no stack reached maxDepth; the stream does not cover the cap", seed)
		}
	}
}
