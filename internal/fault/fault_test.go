package fault

import (
	"reflect"
	"strings"
	"testing"

	"shootdown/internal/sim"
)

func TestNilInjectorInjectsNothing(t *testing.T) {
	var in *Injector
	if drop, delay := in.OnIPI(0, 1); drop || delay != 0 {
		t.Fatalf("nil injector dropped or delayed an IPI")
	}
	if _, ok := in.SpuriousTarget(0, 16); ok {
		t.Fatalf("nil injector produced a spurious target")
	}
	if d := in.ResponderDelay(0); d != 0 {
		t.Fatalf("nil injector delayed a responder: %v", d)
	}
	if d := in.BusJitter(0); d != 0 {
		t.Fatalf("nil injector jittered the bus: %v", d)
	}
	if s := in.Stats(); s != (Stats{}) {
		t.Fatalf("nil injector has stats: %+v", s)
	}
}

func TestDeterministicReplay(t *testing.T) {
	cfg := Config{
		Seed: 42, DropIPI: 0.3, DelayIPI: 0.3, SlowResponder: 0.2,
		StuckResponder: 0.05, SpuriousIPI: 0.2, BusJitter: 0.5,
	}
	type decision struct {
		drop     bool
		delay    sim.Time
		spurious int
		spuOK    bool
		resp     sim.Time
		jitter   sim.Time
	}
	run := func() []decision {
		in := New(cfg)
		var out []decision
		for i := 0; i < 500; i++ {
			var d decision
			d.drop, d.delay = in.OnIPI(i%8, (i+1)%8)
			d.spurious, d.spuOK = in.SpuriousTarget(i%8, 8)
			d.resp = in.ResponderDelay(0)
			d.jitter = in.BusJitter(0)
			out = append(out, d)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged across replays: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestRatesRoughlyHonored(t *testing.T) {
	in := New(Config{Seed: 7, DropIPI: 0.25})
	const n = 10_000
	for i := 0; i < n; i++ {
		in.OnIPI(0, 1)
	}
	drops := in.Stats().DroppedIPIs
	if drops < n/5 || drops > n/3 {
		t.Fatalf("drop rate off: %d/%d for p=0.25", drops, n)
	}
}

func TestSpuriousTargetNeverSender(t *testing.T) {
	in := New(Config{Seed: 3, SpuriousIPI: 1})
	for i := 0; i < 1000; i++ {
		from := i % 4
		tgt, ok := in.SpuriousTarget(from, 4)
		if !ok {
			t.Fatalf("spurious with p=1 did not fire")
		}
		if tgt == from || tgt < 0 || tgt >= 4 {
			t.Fatalf("bad spurious target %d from %d", tgt, from)
		}
	}
}

func TestInjectedDelaysAreBoundedAndPositive(t *testing.T) {
	in := New(Config{Seed: 9, DelayIPI: 1, DelayIPIMax: 100, SlowResponder: 1, SlowResponderMax: 50})
	for i := 0; i < 1000; i++ {
		if _, delay := in.OnIPI(0, 1); delay <= 0 || delay > 100 {
			t.Fatalf("IPI delay %v outside (0, 100]", delay)
		}
		if d := in.ResponderDelay(0); d <= 0 || d > 50 {
			t.Fatalf("responder delay %v outside (0, 50]", d)
		}
	}
}

func TestParseSpec(t *testing.T) {
	cases := []struct {
		spec    string
		want    Config
		wantErr bool
	}{
		{spec: "", want: Config{}},
		{spec: "none", want: Config{}},
		{spec: "drop=0.15", want: Config{DropIPI: 0.15}},
		{
			spec: "drop=0.1,delay=0.2,delaymax=2ms,slow=0.3,slowmax=500us,stuck=0.01,stuckfor=5ms,spurious=0.05,jitter=0.4,jittermax=3us",
			want: Config{
				DropIPI: 0.1, DelayIPI: 0.2, DelayIPIMax: 2_000_000,
				SlowResponder: 0.3, SlowResponderMax: 500_000,
				StuckResponder: 0.01, StuckResponderTime: 5_000_000,
				SpuriousIPI: 0.05, BusJitter: 0.4, BusJitterMax: 3_000,
			},
		},
		// Magnitude defaults kick in when only the probability is given.
		{spec: "delay=0.5", want: Config{DelayIPI: 0.5, DelayIPIMax: defaultDelayIPIMax}},
		{spec: "drop=1.5", wantErr: true},
		{spec: "drop", wantErr: true},
		{spec: "bogus=1", wantErr: true},
		{spec: "delaymax=notadur", wantErr: true},
	}
	for _, tc := range cases {
		got, err := ParseSpec(tc.spec)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseSpec(%q): want error, got %+v", tc.spec, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.spec, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}
}

func TestSpecRoundTrip(t *testing.T) {
	c, err := ParseSpec("drop=0.1,delay=0.25,delaymax=2ms")
	if err != nil {
		t.Fatal(err)
	}
	again, err := ParseSpec(c.Spec())
	if err != nil {
		t.Fatalf("re-parsing %q: %v", c.Spec(), err)
	}
	if !reflect.DeepEqual(again, c) {
		t.Fatalf("spec round trip: %+v vs %+v", again, c)
	}
}

// TestStreamIndependence pins the satellite-1 fix: each fault kind draws
// from its own sub-stream, so enabling one kind must not perturb the
// schedule of another. The drop decisions here interleave with responder
// and bus decisions in one run and not the other, yet stay identical.
func TestStreamIndependence(t *testing.T) {
	dropsOf := func(cfg Config, interleave bool) []bool {
		in := New(cfg)
		var out []bool
		for i := 0; i < 300; i++ {
			drop, _ := in.OnIPI(i%8, (i+1)%8)
			out = append(out, drop)
			if interleave {
				in.ResponderDelay(i % 8)
				in.BusJitter(i % 8)
				in.SpuriousTarget(i%8, 8)
			}
		}
		return out
	}
	alone := dropsOf(Config{Seed: 11, DropIPI: 0.3}, false)
	crowded := dropsOf(Config{
		Seed: 11, DropIPI: 0.3, SlowResponder: 0.5, StuckResponder: 0.1,
		BusJitter: 0.5, SpuriousIPI: 0.3,
	}, true)
	if !reflect.DeepEqual(alone, crowded) {
		t.Fatalf("drop schedule perturbed by enabling other fault kinds")
	}
}

// TestStreamGolden pins the exact per-kind decision sequence for one seed,
// so any change to the stream derivation (splitmix tags, draw order) is a
// visible, deliberate break.
func TestStreamGolden(t *testing.T) {
	in := New(Config{Seed: 42, DropIPI: 0.5})
	got := ""
	for i := 0; i < 24; i++ {
		if drop, _ := in.OnIPI(0, 1); drop {
			got += "D"
		} else {
			got += "."
		}
	}
	const want = "..DDDD..D..DD..D..D.DD.D"
	if got != want {
		t.Fatalf("drop stream for seed 42 = %q, want %q", got, want)
	}
}

func TestMaskSuppressesWithoutPerturbing(t *testing.T) {
	base := Config{Seed: 5, DropIPI: 0.4}
	run := func(mask []EventID) (drops []bool, ev []Event, st Stats) {
		c := base
		c.Mask = mask
		in := New(c)
		in.KeepEvents()
		for i := 0; i < 100; i++ {
			d, _ := in.OnIPI(0, 1)
			drops = append(drops, d)
		}
		return drops, in.Events(), in.Stats()
	}
	drops, events, _ := run(nil)
	if len(events) == 0 {
		t.Fatal("no drops fired with p=0.4")
	}
	victim := events[1].ID
	masked, maskedEvents, st := run([]EventID{victim})

	// Exactly one drop disappears, at the victim's position; every other
	// decision is unchanged.
	diff := 0
	for i := range drops {
		if drops[i] != masked[i] {
			diff++
			if drops[i] != true || masked[i] != false {
				t.Fatalf("mask flipped a non-drop at %d", i)
			}
		}
	}
	if diff != 1 {
		t.Fatalf("mask changed %d decisions, want exactly 1", diff)
	}
	if st.DroppedIPIs != uint64(len(events)-1) {
		t.Fatalf("stats count masked event: %d vs %d fired", st.DroppedIPIs, len(events))
	}
	for _, e := range maskedEvents {
		if e.ID == victim {
			t.Fatal("masked event still in the event log")
		}
	}
	// Later events keep their sequence numbers: ordinals are assigned
	// before the mask is consulted.
	if maskedEvents[1].ID != events[2].ID {
		t.Fatalf("ordinals shifted under mask: %v vs %v", maskedEvents[1].ID, events[2].ID)
	}
}

func TestPlanDeterministicAndBootstrapImmune(t *testing.T) {
	cfg := Config{Seed: 99, FailStop: 0.9, Revive: 0.8}
	a := New(cfg).Plan(8)
	b := New(cfg).Plan(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("plan not deterministic:\n%v\n%v", a, b)
	}
	if len(a) == 0 {
		t.Fatal("no plan events with failstop=0.9 on 8 CPUs")
	}
	for _, ev := range a {
		if ev.CPU == 0 {
			t.Fatal("bootstrap processor (CPU 0) must never fail")
		}
		if ev.At <= 0 {
			t.Fatalf("plan event at non-positive time: %+v", ev)
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i].At < a[i-1].At {
			t.Fatal("plan not sorted by time")
		}
	}
}

func TestPlanMaskingFailSuppressesRevive(t *testing.T) {
	cfg := Config{Seed: 99, FailStop: 0.9, Revive: 0.9}
	full := New(cfg).Plan(8)
	var failID EventID
	var victim int
	found := false
	for _, ev := range full {
		if ev.Online {
			continue
		}
		// Pick a fail that has a matching revive.
		for _, rv := range full {
			if rv.Online && rv.CPU == ev.CPU {
				failID, victim, found = ev.ID, ev.CPU, true
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Skip("no fail+revive pair for this seed")
	}
	cfg.Mask = []EventID{failID}
	masked := New(cfg).Plan(8)
	for _, ev := range masked {
		if ev.CPU == victim {
			t.Fatalf("masking the fail left event %+v for cpu %d in the plan", ev, victim)
		}
	}
}

func TestPlanStreamsIndependentOfOtherKinds(t *testing.T) {
	a := New(Config{Seed: 123, FailStop: 0.7, Revive: 0.5}).Plan(8)
	in := New(Config{Seed: 123, FailStop: 0.7, Revive: 0.5, DropIPI: 0.5, SlowResponder: 0.5})
	// Consume lots of other-kind randomness before generating the plan.
	for i := 0; i < 200; i++ {
		in.OnIPI(0, 1)
		in.ResponderDelay(1)
	}
	b := in.Plan(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fail/revive plan perturbed by other fault kinds:\n%v\n%v", a, b)
	}
}

// jitterEvents fires n bus-jitter events (p = 1) on in, event i at step i.
func jitterEvents(in *Injector, n int) {
	var step uint64
	in.SetStepClock(func() uint64 { return step })
	for i := 0; i < n; i++ {
		step = uint64(i)
		in.BusJitter(i % 4)
	}
}

func TestTailHoldsLastEventsOldestFirst(t *testing.T) {
	in := New(Config{Seed: 1, BusJitter: 1})
	in.KeepEvents()
	jitterEvents(in, 300)
	tail := in.Tail()
	if len(tail) != TailLen {
		t.Fatalf("tail holds %d events, want %d", len(tail), TailLen)
	}
	for i, e := range tail {
		if want := uint64(300 - TailLen + i); e.ID.Seq != want || e.Step != want {
			t.Fatalf("tail[%d] = %v at step %d, want jitter:%d at step %d", i, e.ID, e.Step, want, want)
		}
	}
	if log := in.Events(); !reflect.DeepEqual(log[len(log)-TailLen:], tail) {
		t.Fatal("tail differs from the end of the full log")
	}
}

func TestSnapshotCountsEventsWithoutLog(t *testing.T) {
	for _, keep := range []bool{false, true} {
		in := New(Config{Seed: 1, BusJitter: 1})
		if keep {
			in.KeepEvents()
		}
		jitterEvents(in, 300)
		if got := in.Snapshot().Events; got != 300 {
			t.Errorf("keep=%v: Snapshot().Events = %d, want 300", keep, got)
		}
		if got := len(in.Events()); keep && got != 300 || !keep && got != 0 {
			t.Errorf("keep=%v: full log holds %d events", keep, got)
		}
		if !keep && in.events != nil {
			t.Errorf("injector without KeepEvents grew a %d-event log", len(in.events))
		}
	}
}

// TestKeptLogGolden pins the full log of a mixed campaign, plan events
// first, to the ID sequence the injector logged before the log became
// opt-in; the ring, which holds every event of so short a run, must equal
// it, and a plan wake must stamp its step in both.
func TestKeptLogGolden(t *testing.T) {
	in := New(Config{Seed: 21, DropIPI: 0.2, DelayIPI: 0.2, SlowResponder: 0.2,
		SpuriousIPI: 0.2, BusJitter: 0.3, FailStop: 0.9, Revive: 0.5})
	in.KeepEvents()
	var step uint64
	in.SetStepClock(func() uint64 { return step })
	plan := in.Plan(4)
	for i := 0; i < 12; i++ {
		step++
		in.OnIPI(i%4, (i+1)%4)
		in.SpuriousTarget(i%4, 4)
		in.ResponderDelay(i % 4)
		in.BusJitter(i % 4)
	}
	in.NotePlanWake(plan[0])
	log := in.Events()
	var ids []string
	for _, e := range log {
		ids = append(ids, e.ID.String())
	}
	const want = "failstop:1 failstop:2 failstop:0 revive:0 revive:1 delay:0 spurious:0 jitter:0 " +
		"spurious:1 drop:0 spurious:2 jitter:1 drop:1 slow:0 jitter:2"
	if got := strings.Join(ids, " "); got != want {
		t.Fatalf("kept log IDs:\n got %s\nwant %s", got, want)
	}
	if !reflect.DeepEqual(in.Tail(), log) {
		t.Fatalf("tail of a %d-event run differs from the full log", len(log))
	}
	if log[0].ID != plan[0].ID || log[0].Step != 12 || in.Tail()[0].Step != 12 {
		t.Fatalf("plan wake at step 12 not stamped: log %+v, tail %+v", log[0], in.Tail()[0])
	}
}

func TestKeepEventsAfterFirstEventPanics(t *testing.T) {
	in := New(Config{Seed: 1, BusJitter: 1})
	in.BusJitter(0)
	defer func() {
		if recover() == nil {
			t.Fatal("KeepEvents after an event was logged did not panic")
		}
	}()
	in.KeepEvents()
}

// TestBusJitterAllocatesNothing pins the point of the opt-in log: once the
// ring exists, a fired decision on an injector without KeepEvents
// allocates nothing.
func TestBusJitterAllocatesNothing(t *testing.T) {
	in := New(Config{Seed: 1, BusJitter: 1})
	in.BusJitter(0)
	if allocs := testing.AllocsPerRun(1000, func() { in.BusJitter(1) }); allocs != 0 {
		t.Fatalf("fired BusJitter allocated %v times per call, want 0", allocs)
	}
}
