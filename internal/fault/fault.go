// Package fault is a deterministic, seed-driven fault injector for the
// simulated multiprocessor. It models the failure modes the paper's
// protocol implicitly assumes away — interprocessor interrupts that are
// dropped or delayed by the interrupt hardware, responders that are slow
// (or briefly stuck) servicing the shootdown interrupt, spurious shootdown
// interrupts, jittered bus timing, and processors that fail-stop outright
// (optionally reviving later with a cold TLB) — plus the device-side
// failure modes of IOMMU/device-TLB participants: stalled completion
// queues, dropped doorbell rings, wedged devices, and completion
// reordering — so the protocol-hardening
// layer (watchdog retry/escalation and membership re-check in
// internal/core) and the consistency oracle (internal/oracle) can be
// exercised under adversity.
//
// Each fault kind draws from its own RNG sub-stream, derived by a splitmix
// step from the seed XOR a per-kind tag, so enabling or disabling one kind
// never perturbs the schedule of the others. Decisions are consumed only
// at engine-serialized points (inside running procs), so a campaign with a
// fixed seed replays exactly: the same faults hit the same events in the
// same order on every run.
//
// Every injected fault is logged as an Event with a stable per-kind
// sequence number; a Config.Mask suppresses chosen events by ID (the RNG
// is still drawn, then the effect discarded), which is the substrate the
// delta-debugging shrinker in fault/shrink minimizes over. Logging is
// priced by its readers: every injector counts its events and keeps the
// last TailLen of them in a fixed ring (Tail, which the flight recorder's
// black box carries next to the per-kind Stats), and only an injector
// whose caller asked with KeepEvents — the runs whose schedule a shrink
// may follow — appends every event to the full log Events returns.
//
// All Injector methods are safe on a nil receiver (they inject nothing), so
// the machine layer needs no nil checks at call sites.
package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"shootdown/internal/sim"
)

// Kind names one fault type. The string form is stable and appears in
// reproducer JSON.
type Kind string

// Fault kinds.
const (
	KindDropIPI        Kind = "drop"
	KindDelayIPI       Kind = "delay"
	KindSlowResponder  Kind = "slow"
	KindStuckResponder Kind = "stuck"
	KindSpuriousIPI    Kind = "spurious"
	KindBusJitter      Kind = "jitter"
	KindFailStop       Kind = "failstop"
	KindRevive         Kind = "revive"
	KindDevStall       Kind = "devstall"
	KindDevDrop        Kind = "devdrop"
	KindDevWedge       Kind = "devwedge"
	KindDevReorder     Kind = "devreorder"
)

// kindList orders the kinds; the index is each kind's RNG stream slot.
// Device kinds are appended, so pre-device campaigns keep their slots.
var kindList = []Kind{
	KindDropIPI, KindDelayIPI, KindSlowResponder, KindStuckResponder,
	KindSpuriousIPI, KindBusJitter, KindFailStop, KindRevive,
	KindDevStall, KindDevDrop, KindDevWedge, KindDevReorder,
}

func kindIndex(k Kind) int {
	for i, kk := range kindList {
		if kk == k {
			return i
		}
	}
	return -1
}

// EventID identifies one injected fault: the kind plus the per-kind
// ordinal of the firing decision. IDs are stable for a fixed (config,
// seed, mask) triple, which is what makes masks replayable.
type EventID struct {
	Kind Kind   `json:"kind"`
	Seq  uint64 `json:"seq"`
}

func (id EventID) String() string { return fmt.Sprintf("%s:%d", id.Kind, id.Seq) }

// Event is one fault that was actually injected during a run.
type Event struct {
	ID   EventID  `json:"id"`
	At   sim.Time `json:"at"`             // virtual time of the decision (0 if no clock wired)
	Step uint64   `json:"step,omitempty"` // engine event step of the decision (0 if no step clock)
	CPU  int      `json:"cpu"`            // primary CPU involved (target, responder, …)
	Arg  int64    `json:"arg,omitempty"`  // kind-specific magnitude (delay ns, …)
}

// Config selects fault kinds and rates. Probabilities are in [0, 1]; a zero
// probability disables the kind entirely (and consumes no randomness for
// it, keeping unrelated campaigns comparable).
type Config struct {
	// Seed drives every injection decision. Two injectors with the same
	// Config produce identical fault sequences.
	Seed int64

	// DropIPI is the probability that a shootdown IPI to one target is
	// silently lost (never latched on the target's interrupt controller).
	DropIPI float64
	// DelayIPI is the probability that an IPI is latched but becomes
	// deliverable only after a uniform delay in (0, DelayIPIMax].
	DelayIPI    float64
	DelayIPIMax sim.Time

	// SlowResponder is the probability that a responder pass stalls for a
	// uniform delay in (0, SlowResponderMax] before servicing its actions.
	SlowResponder    float64
	SlowResponderMax sim.Time
	// StuckResponder is the probability of a much longer responder stall
	// of exactly StuckResponderTime (a wedged driver, not a crash: the
	// responder always comes back, so escalation stays sound).
	StuckResponder     float64
	StuckResponderTime sim.Time

	// SpuriousIPI is the probability, per SendIPI call, that one extra
	// random processor receives a shootdown interrupt it was never meant
	// to get (the responder must tolerate an empty action queue).
	SpuriousIPI float64

	// BusJitter is the probability that a bus transaction takes a uniform
	// extra (0, BusJitterMax] beyond its reserved slot.
	BusJitter    float64
	BusJitterMax sim.Time

	// FailStop is the probability, per CPU other than the bootstrap
	// processor (CPU 0), that the CPU fail-stops at a time drawn uniform
	// in (0, FailStopBy]. The whole fail/revive plan is fixed at injector
	// construction, so it is part of the deterministic schedule.
	FailStop   float64
	FailStopBy sim.Time
	// Revive is the probability that a fail-stopped CPU comes back online
	// (hot-plug, cold TLB) after a further uniform (0, ReviveAfterMax].
	Revive         float64
	ReviveAfterMax sim.Time

	// DevStall is the probability, per completion-queue entry a device
	// services, that servicing stalls for a uniform extra (0, DevStallMax]
	// before the completion posts (a congested device pipeline). Long
	// enough stalls trip the initiator's completion watchdog.
	DevStall    float64
	DevStallMax sim.Time

	// DevDrop is the probability that one doorbell ring to a device is
	// lost: the invalidation request is queued but the device never
	// notices until the watchdog re-rings the doorbell.
	DevDrop float64

	// DevWedge is the probability, per queue entry a device begins to
	// service, that the device wedges permanently: it stops servicing its
	// queue and stays wedged across drain-and-reset, so only quarantine
	// recovers the shootdown.
	DevWedge float64

	// DevReorder is the probability, per service pass with more than one
	// queued invalidation, that the device completes a non-head entry
	// first (relaxed completion ordering on the device fabric).
	DevReorder float64

	// Mask suppresses the listed events: the RNG is drawn exactly as
	// without the mask, then the fault's effect is discarded. Not part of
	// the Spec syntax; the shrinker and -repro set it programmatically.
	Mask []EventID `json:"Mask,omitempty"`
}

// Default magnitudes applied by withDefaults when a probability is set but
// its magnitude is zero.
const (
	defaultDelayIPIMax        = sim.Time(1_000_000)  // 1 ms
	defaultSlowResponderMax   = sim.Time(500_000)    // 500 µs
	defaultStuckResponderTime = sim.Time(10_000_000) // 10 ms
	defaultBusJitterMax       = sim.Time(2_000)      // 2 µs
	defaultFailStopBy         = sim.Time(10_000_000) // 10 ms
	defaultReviveAfterMax     = sim.Time(5_000_000)  // 5 ms
	defaultDevStallMax        = sim.Time(8_000_000)  // 8 ms
)

func (c Config) withDefaults() Config {
	if c.DelayIPI > 0 && c.DelayIPIMax == 0 {
		c.DelayIPIMax = defaultDelayIPIMax
	}
	if c.SlowResponder > 0 && c.SlowResponderMax == 0 {
		c.SlowResponderMax = defaultSlowResponderMax
	}
	if c.StuckResponder > 0 && c.StuckResponderTime == 0 {
		c.StuckResponderTime = defaultStuckResponderTime
	}
	if c.BusJitter > 0 && c.BusJitterMax == 0 {
		c.BusJitterMax = defaultBusJitterMax
	}
	if c.FailStop > 0 && c.FailStopBy == 0 {
		c.FailStopBy = defaultFailStopBy
	}
	if c.Revive > 0 && c.ReviveAfterMax == 0 {
		c.ReviveAfterMax = defaultReviveAfterMax
	}
	if c.DevStall > 0 && c.DevStallMax == 0 {
		c.DevStallMax = defaultDevStallMax
	}
	return c
}

// Validate rejects out-of-range probabilities and negative magnitudes.
func (c Config) Validate() error {
	probs := []struct {
		name string
		v    float64
	}{
		{"drop", c.DropIPI}, {"delay", c.DelayIPI}, {"slow", c.SlowResponder},
		{"stuck", c.StuckResponder}, {"spurious", c.SpuriousIPI}, {"jitter", c.BusJitter},
		{"failstop", c.FailStop}, {"revive", c.Revive},
		{"devstall", c.DevStall}, {"devdrop", c.DevDrop},
		{"devwedge", c.DevWedge}, {"devreorder", c.DevReorder},
	}
	for _, p := range probs {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("fault: probability %s=%v outside [0, 1]", p.name, p.v)
		}
	}
	durs := []struct {
		name string
		v    sim.Time
	}{
		{"delaymax", c.DelayIPIMax}, {"slowmax", c.SlowResponderMax},
		{"stuckfor", c.StuckResponderTime}, {"jittermax", c.BusJitterMax},
		{"failby", c.FailStopBy}, {"reviveafter", c.ReviveAfterMax},
		{"devstallmax", c.DevStallMax},
	}
	for _, d := range durs {
		if d.v < 0 {
			return fmt.Errorf("fault: duration %s=%v negative", d.name, d.v)
		}
	}
	return nil
}

// Enabled reports whether any fault kind has a nonzero probability.
func (c Config) Enabled() bool {
	return c.DropIPI > 0 || c.DelayIPI > 0 || c.SlowResponder > 0 ||
		c.StuckResponder > 0 || c.SpuriousIPI > 0 || c.BusJitter > 0 ||
		c.FailStop > 0 || c.DevStall > 0 || c.DevDrop > 0 ||
		c.DevWedge > 0 || c.DevReorder > 0
}

// Spec renders the config in ParseSpec's syntax (stable key order), for
// labeling campaign rows. The Seed and Mask fields are not rendered.
func (c Config) Spec() string {
	c = c.withDefaults()
	var parts []string
	add := func(k string, p float64, durKey string, d sim.Time) {
		if p <= 0 {
			return
		}
		parts = append(parts, k+"="+strconv.FormatFloat(p, 'g', -1, 64))
		if durKey != "" {
			parts = append(parts, durKey+"="+d.Duration().String())
		}
	}
	add("drop", c.DropIPI, "", 0)
	add("delay", c.DelayIPI, "delaymax", c.DelayIPIMax)
	add("slow", c.SlowResponder, "slowmax", c.SlowResponderMax)
	add("stuck", c.StuckResponder, "stuckfor", c.StuckResponderTime)
	add("spurious", c.SpuriousIPI, "", 0)
	add("jitter", c.BusJitter, "jittermax", c.BusJitterMax)
	add("failstop", c.FailStop, "failby", c.FailStopBy)
	add("revive", c.Revive, "reviveafter", c.ReviveAfterMax)
	add("devstall", c.DevStall, "devstallmax", c.DevStallMax)
	add("devdrop", c.DevDrop, "", 0)
	add("devwedge", c.DevWedge, "", 0)
	add("devreorder", c.DevReorder, "", 0)
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// ParseSpec parses a comma-separated key=value fault specification, e.g.
//
//	drop=0.15,delay=0.1,delaymax=2ms,slow=0.1,spurious=0.05,failstop=0.5
//
// Keys: drop, delay, slow, stuck, spurious, jitter, failstop, revive,
// devstall, devdrop, devwedge, devreorder (probabilities in [0, 1]);
// delaymax, slowmax, stuckfor, jittermax, failby, reviveafter,
// devstallmax (Go durations). Unset magnitudes take kind-specific
// defaults. "none" or "" yields a zero config. The Seed and Mask fields
// are not part of the spec; callers set them.
func ParseSpec(spec string) (Config, error) {
	var c Config
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "none" {
		return c, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return c, fmt.Errorf("fault: bad spec element %q (want key=value)", kv)
		}
		if p, ok := probField(&c, k); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return c, fmt.Errorf("fault: %s: %v", k, err)
			}
			*p = f
			continue
		}
		if d, ok := durField(&c, k); ok {
			dur, err := time.ParseDuration(v)
			if err != nil {
				return c, fmt.Errorf("fault: %s: %v", k, err)
			}
			*d = sim.Time(dur.Nanoseconds())
			continue
		}
		return c, fmt.Errorf("fault: unknown spec key %q (known: %s)", k, strings.Join(specKeys(), ", "))
	}
	c = c.withDefaults()
	if err := c.Validate(); err != nil {
		return c, err
	}
	return c, nil
}

func probField(c *Config, k string) (*float64, bool) {
	switch k {
	case "drop":
		return &c.DropIPI, true
	case "delay":
		return &c.DelayIPI, true
	case "slow":
		return &c.SlowResponder, true
	case "stuck":
		return &c.StuckResponder, true
	case "spurious":
		return &c.SpuriousIPI, true
	case "jitter":
		return &c.BusJitter, true
	case "failstop":
		return &c.FailStop, true
	case "revive":
		return &c.Revive, true
	case "devstall":
		return &c.DevStall, true
	case "devdrop":
		return &c.DevDrop, true
	case "devwedge":
		return &c.DevWedge, true
	case "devreorder":
		return &c.DevReorder, true
	}
	return nil, false
}

func durField(c *Config, k string) (*sim.Time, bool) {
	switch k {
	case "delaymax":
		return &c.DelayIPIMax, true
	case "slowmax":
		return &c.SlowResponderMax, true
	case "stuckfor":
		return &c.StuckResponderTime, true
	case "jittermax":
		return &c.BusJitterMax, true
	case "failby":
		return &c.FailStopBy, true
	case "reviveafter":
		return &c.ReviveAfterMax, true
	case "devstallmax":
		return &c.DevStallMax, true
	}
	return nil, false
}

func specKeys() []string {
	ks := []string{"drop", "delay", "delaymax", "slow", "slowmax",
		"stuck", "stuckfor", "spurious", "jitter", "jittermax",
		"failstop", "failby", "revive", "reviveafter",
		"devstall", "devstallmax", "devdrop", "devwedge", "devreorder"}
	sort.Strings(ks)
	return ks
}

// Stats counts injected faults by kind.
type Stats struct {
	DroppedIPIs    uint64
	DelayedIPIs    uint64
	SpuriousIPIs   uint64
	SlowResponses  uint64
	StuckResponses uint64
	JitteredBusOps uint64
	FailStops      uint64
	Revives        uint64
	DevStalls      uint64 `json:",omitempty"`
	DevDoorbells   uint64 `json:",omitempty"` // dropped doorbell rings
	DevWedges      uint64 `json:",omitempty"`
	DevReorders    uint64 `json:",omitempty"`
}

// Total sums all injected faults.
func (s Stats) Total() uint64 {
	return s.DroppedIPIs + s.DelayedIPIs + s.SpuriousIPIs +
		s.SlowResponses + s.StuckResponses + s.JitteredBusOps +
		s.FailStops + s.Revives + s.DevStalls + s.DevDoorbells +
		s.DevWedges + s.DevReorders
}

// splitmix64 is the SplitMix64 finalizer, used to derive well-separated
// per-kind stream seeds from (seed XOR kind tag).
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// kindTag hashes a kind name (FNV-1a) into the tag XORed with the seed.
func kindTag(k Kind) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(k); i++ {
		h ^= uint64(k[i])
		h *= 1099511628211
	}
	return h
}

// CPUEvent is one entry of the deterministic fail/revive plan: at virtual
// time At, CPU fails (Online=false) or comes back online (Online=true).
type CPUEvent struct {
	ID     EventID  `json:"id"`
	CPU    int      `json:"cpu"`
	At     sim.Time `json:"at"`
	Online bool     `json:"online"`
}

// TailLen is how many of the most recent events every injector keeps in
// its ring, full log or not.
const TailLen = 256

// Injector makes fault decisions, one seeded RNG sub-stream per kind.
// A nil *Injector injects nothing.
type Injector struct {
	cfg       Config       //snap:derived configuration, reapplied from the experiment config on replay
	streams   []*rand.Rand //snap:derived rebuilt from cfg.Seed by splitmix on restore; positions attested by the per-kind draw counts
	fired     []uint64     // per-kind ordinal of the next firing decision
	draws     []uint64     // per-kind count of RNG values consumed
	masked    map[EventID]bool
	logged    int     // events logged so far, whether or not the full log keeps them
	keep      bool    //snap:transient a reader's opt-in (KeepEvents), set before the run; it decides what is recorded, never a fault
	events    []Event //snap:derived the full log, rebuilt by replaying the same decisions; its length is the logged count
	tail      []Event //snap:derived the last TailLen events, rebuilt by replaying the same decisions; the logged count places its head
	stats     Stats
	clock     func() sim.Time //snap:derived wiring to the engine clock, re-established at construction
	stepClock func() uint64   //snap:derived wiring to the engine step counter, re-established at construction

	plan     []CPUEvent // full fail/revive plan (before masking)
	planNCPU int
	planDone bool
}

// New builds an injector. The config's magnitude defaults are applied.
func New(cfg Config) *Injector {
	cfg = cfg.withDefaults()
	in := &Injector{
		cfg:     cfg,
		streams: make([]*rand.Rand, len(kindList)),
		fired:   make([]uint64, len(kindList)),
		draws:   make([]uint64, len(kindList)),
		masked:  make(map[EventID]bool, len(cfg.Mask)),
	}
	for i, k := range kindList {
		in.streams[i] = rand.New(rand.NewSource(int64(splitmix64(uint64(cfg.Seed) ^ kindTag(k)))))
	}
	for _, id := range cfg.Mask {
		in.masked[id] = true
	}
	return in
}

// SetClock wires a virtual-time source so events carry timestamps. The
// machine layer calls this; timestamps are informational only and do not
// affect any decision.
func (in *Injector) SetClock(fn func() sim.Time) {
	if in != nil {
		in.clock = fn
	}
}

// SetStepClock wires the engine's event-step counter so events record the
// step at which each decision landed. Like SetClock, it is informational
// only: the step rides in the event log a flight recorder's black box
// carries, placing each fault on the same cursor as its snapshots.
func (in *Injector) SetStepClock(fn func() uint64) {
	if in != nil {
		in.stepClock = fn
	}
}

func (in *Injector) now() sim.Time {
	if in.clock == nil {
		return 0
	}
	return in.clock()
}

func (in *Injector) step() uint64 {
	if in.stepClock == nil {
		return 0
	}
	return in.stepClock()
}

// Config returns the effective configuration (zero value on nil).
func (in *Injector) Config() Config {
	if in == nil {
		return Config{}
	}
	return in.cfg
}

// Stats returns a snapshot of the injection counters.
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	return in.stats
}

// KeepEvents turns on the full event log that Events returns. Only a run
// whose schedule may be shrunk needs it; every other reader takes the
// counts (Stats, Snapshot) or the ring (Tail), which cost no allocation
// per event. Call it before the run: it panics once an event has been
// logged, because the log would silently miss that event.
func (in *Injector) KeepEvents() {
	if in == nil {
		return
	}
	if in.logged > 0 {
		panic(fmt.Sprintf("fault: KeepEvents called after %d events were logged", in.logged))
	}
	in.keep = true
}

// Events returns a copy of the full injected-fault log, in injection order
// (plan events first, at plan-generation time). The log is kept only after
// KeepEvents; without it Events returns nil.
func (in *Injector) Events() []Event {
	if in == nil || !in.keep {
		return nil
	}
	out := make([]Event, len(in.events))
	copy(out, in.events)
	return out
}

// Tail returns a copy of the last TailLen events logged (all of them when
// fewer were), oldest first. Every injector keeps it.
func (in *Injector) Tail() []Event {
	if in == nil {
		return nil
	}
	if in.logged <= TailLen {
		return append([]Event(nil), in.tail[:in.logged]...)
	}
	head := in.logged % TailLen
	return append(append(make([]Event, 0, TailLen), in.tail[head:]...), in.tail[:head]...)
}

// StreamSnap pins one fault kind's RNG sub-stream: how many values it has
// consumed and how many firing decisions it has issued. Stream contents are
// pure functions of (seed, kind, draw count), so the counters alone let a
// replayed injector prove it sits at the same position.
type StreamSnap struct {
	Kind  Kind   `json:"kind"`
	Draws uint64 `json:"draws,omitempty"`
	Fired uint64 `json:"fired,omitempty"`
}

// Snap is the injector's snapshot: sub-stream positions in kindList order,
// cumulative stats, the injected-event count, and the fail/revive plan
// state. It contains everything that distinguishes two injectors built from
// the same Config.
type Snap struct {
	Streams  []StreamSnap `json:"streams,omitempty"`
	Stats    Stats        `json:"stats"`
	Events   int          `json:"events"`
	Masked   int          `json:"masked,omitempty"`
	PlanDone bool         `json:"plan_done,omitempty"`
	PlanNCPU int          `json:"plan_ncpu,omitempty"`
	PlanLen  int          `json:"plan_len,omitempty"`
}

// Snapshot captures the injector's deterministic state. Safe on nil (zero
// snapshot: a disabled injector has no state to pin).
func (in *Injector) Snapshot() Snap {
	if in == nil {
		return Snap{}
	}
	s := Snap{
		Stats:    in.stats,
		Events:   in.logged,
		Masked:   len(in.masked),
		PlanDone: in.planDone,
		PlanNCPU: in.planNCPU,
		PlanLen:  len(in.plan),
	}
	for i, k := range kindList {
		if in.draws[i] == 0 && in.fired[i] == 0 {
			continue
		}
		s.Streams = append(s.Streams, StreamSnap{Kind: k, Draws: in.draws[i], Fired: in.fired[i]})
	}
	return s
}

// fire assigns the next ordinal for kind k and consults the mask: it
// returns the event ID and whether the fault's effect should be applied.
// The caller must already have drawn all RNG for the decision (including
// magnitudes), so masking never perturbs the stream.
func (in *Injector) fire(k Kind) (EventID, bool) {
	i := kindIndex(k)
	id := EventID{Kind: k, Seq: in.fired[i]}
	in.fired[i]++
	return id, !in.masked[id]
}

// record logs one fired decision, stamped with the clocks.
func (in *Injector) record(id EventID, cpu int, arg int64) {
	in.log(Event{ID: id, At: in.now(), Step: in.step(), CPU: cpu, Arg: arg})
}

// log counts ev, writes it into the ring (allocated at the first event, so
// an injector that never fires pays nothing) and, after KeepEvents,
// appends it to the full log.
func (in *Injector) log(ev Event) {
	if in.tail == nil {
		in.tail = make([]Event, TailLen)
	}
	in.tail[in.logged%TailLen] = ev
	in.logged++
	if in.keep {
		in.events = append(in.events, ev)
	}
}

// f64 draws one float from kind k's stream, counting the draw so
// Snapshot() pins every stream's position.
func (in *Injector) f64(k Kind) float64 {
	i := kindIndex(k)
	in.draws[i]++
	return in.streams[i].Float64()
}

// intn draws one bounded int from kind k's stream, counting the draw.
func (in *Injector) intn(k Kind, n int) int {
	i := kindIndex(k)
	in.draws[i]++
	return in.streams[i].Intn(n)
}

// uniform returns a value in (0, max] from kind k's stream, never zero so
// an injected fault is always observable. A non-positive max consumes no
// randomness.
func (in *Injector) uniform(k Kind, max sim.Time) sim.Time {
	if max <= 0 {
		return 0
	}
	i := kindIndex(k)
	in.draws[i]++
	return 1 + sim.Time(in.streams[i].Int63n(int64(max)))
}

// OnIPI decides the fate of one IPI from CPU from to CPU to: dropped,
// delivered after a delay, or (both zero-valued) delivered normally. Drop
// and delay draw from independent streams; when both fire, drop wins.
func (in *Injector) OnIPI(from, to int) (drop bool, delay sim.Time) {
	if in == nil {
		return false, 0
	}
	if in.cfg.DropIPI > 0 && in.f64(KindDropIPI) < in.cfg.DropIPI {
		if id, apply := in.fire(KindDropIPI); apply {
			in.stats.DroppedIPIs++
			in.record(id, to, 0)
			return true, 0
		}
	}
	if in.cfg.DelayIPI > 0 && in.f64(KindDelayIPI) < in.cfg.DelayIPI {
		d := in.uniform(KindDelayIPI, in.cfg.DelayIPIMax)
		if id, apply := in.fire(KindDelayIPI); apply {
			in.stats.DelayedIPIs++
			in.record(id, to, int64(d))
			return false, d
		}
	}
	return false, 0
}

// SpuriousTarget decides, once per SendIPI call, whether some extra
// processor receives a spurious shootdown interrupt, and which. The sender
// is never chosen.
func (in *Injector) SpuriousTarget(from, ncpu int) (int, bool) {
	if in == nil || in.cfg.SpuriousIPI <= 0 || ncpu < 2 {
		return 0, false
	}
	if in.f64(KindSpuriousIPI) >= in.cfg.SpuriousIPI {
		return 0, false
	}
	t := in.intn(KindSpuriousIPI, ncpu-1)
	if t >= from {
		t++
	}
	id, apply := in.fire(KindSpuriousIPI)
	if !apply {
		return 0, false
	}
	in.stats.SpuriousIPIs++
	in.record(id, t, 0)
	return t, true
}

// ResponderDelay decides how long a responder pass on CPU cpu stalls
// before doing any work: a long "stuck" period, a short "slow" period, or
// zero. Stuck and slow draw from independent streams; stuck wins.
func (in *Injector) ResponderDelay(cpu int) sim.Time {
	if in == nil {
		return 0
	}
	if in.cfg.StuckResponder > 0 && in.f64(KindStuckResponder) < in.cfg.StuckResponder {
		if id, apply := in.fire(KindStuckResponder); apply {
			in.stats.StuckResponses++
			in.record(id, cpu, int64(in.cfg.StuckResponderTime))
			return in.cfg.StuckResponderTime
		}
	}
	if in.cfg.SlowResponder > 0 && in.f64(KindSlowResponder) < in.cfg.SlowResponder {
		d := in.uniform(KindSlowResponder, in.cfg.SlowResponderMax)
		if id, apply := in.fire(KindSlowResponder); apply {
			in.stats.SlowResponses++
			in.record(id, cpu, int64(d))
			return d
		}
	}
	return 0
}

// BusJitter decides the extra stall for one bus transaction on CPU cpu.
func (in *Injector) BusJitter(cpu int) sim.Time {
	if in == nil || in.cfg.BusJitter <= 0 {
		return 0
	}
	if in.f64(KindBusJitter) >= in.cfg.BusJitter {
		return 0
	}
	d := in.uniform(KindBusJitter, in.cfg.BusJitterMax)
	id, apply := in.fire(KindBusJitter)
	if !apply {
		return 0
	}
	in.stats.JitteredBusOps++
	in.record(id, cpu, int64(d))
	return d
}

// DoorbellDrop decides whether one doorbell ring to device dev is lost
// (the queued invalidation sits unserviced until a re-ring). For device
// kinds the event's CPU field carries the device id.
func (in *Injector) DoorbellDrop(dev int) bool {
	if in == nil || in.cfg.DevDrop <= 0 {
		return false
	}
	if in.f64(KindDevDrop) >= in.cfg.DevDrop {
		return false
	}
	id, apply := in.fire(KindDevDrop)
	if !apply {
		return false
	}
	in.stats.DevDoorbells++
	in.record(id, dev, 0)
	return true
}

// DevServiceDelay decides the extra stall before device dev completes
// one queued invalidation: a uniform (0, DevStallMax], or zero.
func (in *Injector) DevServiceDelay(dev int) sim.Time {
	if in == nil || in.cfg.DevStall <= 0 {
		return 0
	}
	if in.f64(KindDevStall) >= in.cfg.DevStall {
		return 0
	}
	d := in.uniform(KindDevStall, in.cfg.DevStallMax)
	id, apply := in.fire(KindDevStall)
	if !apply {
		return 0
	}
	in.stats.DevStalls++
	in.record(id, dev, int64(d))
	return d
}

// DevWedged decides, per queue entry device dev begins to service,
// whether the device wedges permanently. A wedged device never
// completes again (drain-and-reset does not clear it), so the
// initiator's only way out is quarantine.
func (in *Injector) DevWedged(dev int) bool {
	if in == nil || in.cfg.DevWedge <= 0 {
		return false
	}
	if in.f64(KindDevWedge) >= in.cfg.DevWedge {
		return false
	}
	id, apply := in.fire(KindDevWedge)
	if !apply {
		return false
	}
	in.stats.DevWedges++
	in.record(id, dev, 0)
	return true
}

// DevReorder decides whether device dev services a non-head entry of its
// n-deep completion queue first, and which index in [1, n). The head
// (index 0) is never chosen: a reorder that picks the head is a no-op.
func (in *Injector) DevReorder(dev, n int) (int, bool) {
	if in == nil || in.cfg.DevReorder <= 0 || n < 2 {
		return 0, false
	}
	if in.f64(KindDevReorder) >= in.cfg.DevReorder {
		return 0, false
	}
	idx := 1 + in.intn(KindDevReorder, n-1)
	id, apply := in.fire(KindDevReorder)
	if !apply {
		return 0, false
	}
	in.stats.DevReorders++
	in.record(id, dev, int64(idx))
	return idx, true
}

// Plan returns the deterministic fail/revive schedule for an ncpu-way
// machine, sorted by time, with masked events removed (masking a CPU's
// fail also suppresses its revive — a revive without its fail is
// meaningless). The plan is generated once, on first call, entirely from
// the failstop and revive streams; CPU 0 is the bootstrap processor and
// never fails.
func (in *Injector) Plan(ncpu int) []CPUEvent {
	if in == nil || in.cfg.FailStop <= 0 {
		return nil
	}
	if !in.planDone {
		in.generatePlan(ncpu)
	} else if ncpu != in.planNCPU {
		panic(fmt.Sprintf("fault: Plan called with ncpu=%d after plan generated for ncpu=%d", ncpu, in.planNCPU))
	}
	var out []CPUEvent
	skipRevive := map[int]bool{}
	for _, ev := range in.plan {
		if in.masked[ev.ID] || (ev.Online && skipRevive[ev.CPU]) {
			if !ev.Online {
				skipRevive[ev.CPU] = true
			}
			continue
		}
		out = append(out, ev)
	}
	return out
}

func (in *Injector) generatePlan(ncpu int) {
	in.planDone = true
	in.planNCPU = ncpu
	for cpu := 1; cpu < ncpu; cpu++ {
		if in.f64(KindFailStop) >= in.cfg.FailStop {
			continue
		}
		failAt := in.uniform(KindFailStop, in.cfg.FailStopBy)
		failID, _ := in.fire(KindFailStop)
		in.plan = append(in.plan, CPUEvent{ID: failID, CPU: cpu, At: failAt})
		if in.cfg.Revive > 0 && in.f64(KindRevive) < in.cfg.Revive {
			reviveAt := failAt + in.uniform(KindRevive, in.cfg.ReviveAfterMax)
			reviveID, _ := in.fire(KindRevive)
			in.plan = append(in.plan, CPUEvent{ID: reviveID, CPU: cpu, At: reviveAt, Online: true})
		}
	}
	sort.Slice(in.plan, func(i, j int) bool {
		if in.plan[i].At != in.plan[j].At {
			return in.plan[i].At < in.plan[j].At
		}
		return in.plan[i].CPU < in.plan[j].CPU
	})
	// Log the unmasked plan entries as injected events up front: the plan
	// is part of the schedule the shrinker minimizes over.
	for _, ev := range in.plan {
		if in.masked[ev.ID] {
			continue
		}
		arg := int64(0)
		if ev.Online {
			arg = 1
		}
		in.log(Event{ID: ev.ID, At: ev.At, CPU: ev.CPU, Arg: arg})
	}
}

// NotePlanWake stamps a plan event's entry with the current engine step,
// at the moment the lifecycle driver wakes to apply it, in the full log
// and in the ring if they still hold it. Plan events are logged at
// generation time (step 0); the wake step is the first point at which
// masking the event could change the run, so the log (and the black box
// that embeds the ring) places a fail or revive where it took effect.
func (in *Injector) NotePlanWake(ev CPUEvent) {
	if in == nil {
		return
	}
	step := in.step()
	stamp(in.events, ev.ID, step)
	stamp(in.tail[:min(in.logged, TailLen)], ev.ID, step)
}

// stamp sets the step of the entry of evs with the given ID, if any.
func stamp(evs []Event, id EventID, step uint64) {
	for i := range evs {
		if evs[i].ID == id {
			evs[i].Step = step
			return
		}
	}
}

// NotePlanApplied records that the kernel applied one plan event (the
// fail/revive actually happened before the run ended), for the stats.
func (in *Injector) NotePlanApplied(ev CPUEvent) {
	if in == nil {
		return
	}
	if ev.Online {
		in.stats.Revives++
	} else {
		in.stats.FailStops++
	}
}
