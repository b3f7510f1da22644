// Package oracle is an independent TLB-consistency checker. It shadows
// every page-table update at the instant the PTE word is written (via
// ptable.Table.OnWrite) and observes every TLB use and reload (via
// machine.MMUObserver), sharing no state or code paths with the shootdown
// protocol it is checking. If the protocol is correct, no simulated TLB
// ever *grants an access* through a translation that disagrees with the
// shadow — that is the invariant, checked at the only points where
// staleness is observable:
//
//   - OnTLBUse: a cached entry satisfied a translation. The entry must not
//     map a different frame than the shadow, must not be valid where the
//     shadow is unmapped, and must not permit a write the shadow forbids.
//   - OnTLBInsert: a hardware reload cached a PTE read from the table. The
//     same comparison applies (a reload racing a pmap update is precisely
//     the Section 3 hazard the protocol stalls responders to prevent).
//
// A TLB merely *holding* a stale entry is not a violation: the paper's
// idle-processor optimization deliberately leaves stale entries cached on
// idle processors with the invalidation queued, and ASID-tagged TLBs retain
// entries for inactive spaces (Section 10). Check therefore reports such
// entries only as an informational count, and separately asserts that the
// physical page tables agree with the shadow — catching the other Section 3
// hazard, a blind reference/modify writeback resurrecting an overwritten
// PTE.
//
// Entries granting *less* access than the shadow are always legal: the
// kernel clears reference bits without shootdown, and pure permission
// upgrades heal through ordinary faults.
package oracle

import (
	"errors"
	"fmt"
	"sort"

	"shootdown/internal/machine"
	"shootdown/internal/ptable"
	"shootdown/internal/sim"
	"shootdown/internal/tlb"
)

// rmMask strips the bits a TLB may legitimately cache differently from the
// table: reference and modify are written back lazily.
const rmMask = ptable.PTEReferenced | ptable.PTEModified

// maxViolations bounds the retained violation records (all are counted).
const maxViolations = 32

// Stats counts oracle activity.
type Stats struct {
	TrackedTables uint64 // page tables shadowed
	TrackedWrites uint64 // PTE writes mirrored into the shadow
	UseChecks     uint64 // TLB-hit translations checked
	InsertChecks  uint64 // TLB reloads checked
	SyncChecks    uint64 // Check() calls
	// StaleCached is the number of cached-but-stale TLB entries seen by the
	// most recent Check — legal under the idle and ASID optimizations, so
	// informational only.
	StaleCached uint64
	// CPUFails and CPURevives count the lifecycle transitions the oracle
	// was told about (fail-stop campaigns).
	CPUFails   uint64
	CPURevives uint64
	Violations uint64
	// Device-TLB checking counters (zero — and omitted from the wire —
	// in deviceless runs; see device.go).
	DevUseChecks       uint64 `json:",omitempty"` // device-TLB hit translations checked
	DevInsertChecks    uint64 `json:",omitempty"` // device MMU walks checked
	DevInvalsSeen      uint64 `json:",omitempty"` // invalidation postings observed
	DevCompletionsSeen uint64 `json:",omitempty"` // invalidation completions observed
	// DevGraceUses counts DMA translations through a stale entry inside
	// the legal ATS grace window (PTE cleared, completion not yet in) —
	// informational, like StaleCached.
	DevGraceUses   uint64 `json:",omitempty"`
	DevQuarantines uint64 `json:",omitempty"` // device fail-stops observed
}

// Violation is one observed breach of the consistency invariant.
type Violation struct {
	Time sim.Time
	CPU  int
	// Kind is one of "stale-use", "stale-insert", "table-divergence",
	// "stale-after-revive", or — with CPU carrying the device id —
	// "stale-dma-use", "stale-dma-insert".
	Kind string
	VA   ptable.VAddr
	ASID tlb.ASID
	Got  ptable.PTE // what the TLB (or table) held
	Want ptable.PTE // what the shadow holds (0 = unmapped)
}

func (v Violation) String() string {
	return fmt.Sprintf("t=%v cpu%d %s va=%#x asid=%d got=%v want=%v",
		v.Time.Duration(), v.CPU, v.Kind, uint32(v.VA), v.ASID, v.Got, v.Want)
}

// shadow is the oracle's private copy of one page table's valid mappings.
type shadow struct {
	table   *ptable.Table
	asid    tlb.ASID
	kernel  bool
	entries map[ptable.VAddr]ptable.PTE // page VA -> PTE; absent = unmapped
}

// Oracle shadows tracked page tables and checks TLB observations against
// them. All methods run at engine-serialized points, so no locking is
// needed. A nil *Oracle is safe everywhere and checks nothing.
type Oracle struct {
	m          *machine.Machine //snap:derived wiring to the machine, re-established when the world is rebuilt for replay
	shadows    []*shadow
	byTable    map[*ptable.Table]*shadow //snap:derived index over shadows keyed by live table pointers, rebuilt by Track on replay
	byASID     map[tlb.ASID]*shadow      //snap:derived index over shadows, rebuilt by Track on replay
	stats      Stats
	violations []Violation
	devs       map[int]*devShadow // per-device covered-but-survived state (device.go)

	// OnViolation, when set, is called with each violation as it is
	// recorded (the flight recorder trips on it). It must not perturb the
	// simulation: no virtual time, no randomness.
	//snap:transient observation hook, reattached by the session
	OnViolation func(Violation)
}

var _ machine.MMUObserver = (*Oracle)(nil)

// New builds an oracle for machine m. Call Track for each page table and
// machine.SetMMUObserver to start observing translations.
func New(m *machine.Machine) *Oracle {
	return &Oracle{
		m:       m,
		byTable: make(map[*ptable.Table]*shadow),
		byASID:  make(map[tlb.ASID]*shadow),
		devs:    make(map[int]*devShadow),
	}
}

// Track starts shadowing a page table, installing its OnWrite/OnDestroy
// hooks (chaining any existing hook). Track the table before any mapping is
// entered; pre-existing valid entries are snapshotted as a starting shadow.
func (o *Oracle) Track(t *ptable.Table, asid tlb.ASID, kernel bool) {
	if o == nil || t == nil {
		return
	}
	if _, dup := o.byTable[t]; dup {
		return
	}
	sh := &shadow{table: t, asid: asid, kernel: kernel, entries: make(map[ptable.VAddr]ptable.PTE)}
	t.ForEach(0, ^ptable.VAddr(0), func(va ptable.VAddr, pte ptable.PTE) {
		sh.entries[va] = pte
	})
	o.shadows = append(o.shadows, sh)
	o.byTable[t] = sh
	o.byASID[asid] = sh
	o.stats.TrackedTables++
	prevWrite, prevDestroy := t.OnWrite, t.OnDestroy
	t.OnWrite = func(va ptable.VAddr, pte ptable.PTE) {
		if prevWrite != nil {
			prevWrite(va, pte)
		}
		// The shadow IS the oracle's function: mirroring every table write
		// is tracking, not perturbation — the machine state is untouched.
		//lint:allow hookpurity shadow bookkeeping is the oracle's own state, not machine state
		o.stats.TrackedWrites++
		// A changed mapping reopens the device grace window for its page.
		o.devPageTouched(va)
		if pte.Valid() {
			//lint:allow hookpurity shadow bookkeeping is the oracle's own state, not machine state
			sh.entries[va] = pte
		} else {
			delete(sh.entries, va)
		}
	}
	t.OnDestroy = func() {
		if prevDestroy != nil {
			prevDestroy()
		}
		//lint:allow hookpurity dropping the shadow of a destroyed table is oracle bookkeeping, not machine state
		o.untrack(sh)
	}
}

func (o *Oracle) untrack(sh *shadow) {
	delete(o.byTable, sh.table)
	if o.byASID[sh.asid] == sh {
		delete(o.byASID, sh.asid)
	}
	for i, s := range o.shadows {
		if s == sh {
			o.shadows = append(o.shadows[:i], o.shadows[i+1:]...)
			break
		}
	}
}

// staleAgainst reports whether a translation the TLB is acting on grants
// more than the shadow allows, and what the shadow holds. write indicates
// the access being granted actually writes.
func staleAgainst(sh *shadow, va ptable.VAddr, entry ptable.PTE, write bool) (ptable.PTE, bool) {
	want, mapped := sh.entries[va.Page()]
	if !mapped {
		return 0, true // translating through an unmapped page
	}
	if entry.Frame() != want.Frame() {
		return want, true // wrong frame
	}
	if write && !want.Writable() {
		return want, true // writing through a read-only mapping
	}
	return want, false
}

func (o *Oracle) record(v Violation) {
	o.stats.Violations++
	if len(o.violations) < maxViolations {
		o.violations = append(o.violations, v)
	}
	if o.OnViolation != nil {
		o.OnViolation(v)
	}
}

// OnTLBUse implements machine.MMUObserver: a cached entry granted an access.
func (o *Oracle) OnTLBUse(cpu int, va ptable.VAddr, asid tlb.ASID, entry ptable.PTE, table *ptable.Table, write bool) {
	if o == nil {
		return
	}
	sh, ok := o.byTable[table]
	if !ok {
		return
	}
	o.stats.UseChecks++
	if want, stale := staleAgainst(sh, va, entry, write); stale {
		o.record(Violation{Time: o.m.Eng.Now(), CPU: cpu, Kind: "stale-use",
			VA: va.Page(), ASID: asid, Got: entry, Want: want})
	}
}

// OnTLBInsert implements machine.MMUObserver: a hardware reload cached a PTE.
func (o *Oracle) OnTLBInsert(cpu int, va ptable.VAddr, asid tlb.ASID, entry ptable.PTE, table *ptable.Table) {
	if o == nil {
		return
	}
	sh, ok := o.byTable[table]
	if !ok {
		return
	}
	o.stats.InsertChecks++
	// A reload must agree with the shadow outright: it just read the
	// physical table, so any disagreement means the reload raced an update
	// (or the table itself has diverged). Writability is compared directly
	// — caching W the shadow forbids will grant a bad write later.
	want, mapped := sh.entries[va.Page()]
	if !mapped || entry.Frame() != want.Frame() || (entry.Writable() && !want.Writable()) {
		o.record(Violation{Time: o.m.Eng.Now(), CPU: cpu, Kind: "stale-insert",
			VA: va.Page(), ASID: asid, Got: entry, Want: want})
	}
}

// OnCPUFail notes a processor fail-stop. The dead CPU's TLB freezes with
// whatever it cached — harmless, since an offline processor translates
// nothing — so the stale-cached scan skips offline CPUs from here on.
func (o *Oracle) OnCPUFail(cpu int) {
	if o == nil {
		return
	}
	o.stats.CPUFails++
}

// OnCPUOnline is the hot-plug assertion: a processor coming back online
// has been through hardware reset, so its TLB must be empty. Any entry
// still cached is a carry-over from a previous life — exactly the
// stale-translation-after-revive bug class — and is recorded as a
// violation whether or not the entry happens to still agree with the
// shadow (a revived CPU must never trust pre-failure state).
func (o *Oracle) OnCPUOnline(cpu int) {
	if o == nil {
		return
	}
	o.stats.CPURevives++
	for _, e := range o.m.CPU(cpu).TLB.Entries() {
		var want ptable.PTE
		if sh, ok := o.byASID[e.ASID]; ok {
			want = sh.entries[e.VA.Page()]
		}
		o.record(Violation{Time: o.m.Eng.Now(), CPU: cpu, Kind: "stale-after-revive",
			VA: e.VA.Page(), ASID: e.ASID, Got: e.PTE, Want: want})
	}
}

// Check is the sync-point assertion: every tracked physical page table must
// agree with its shadow (masking the hardware-written R/M bits), in both
// directions. It also refreshes the informational stale-cached count. It
// returns the number of new violations recorded.
func (o *Oracle) Check() int {
	if o == nil {
		return 0
	}
	o.stats.SyncChecks++
	before := o.stats.Violations
	for _, sh := range o.shadows {
		seen := make(map[ptable.VAddr]bool, len(sh.entries))
		sh.table.ForEach(0, ^ptable.VAddr(0), func(va ptable.VAddr, pte ptable.PTE) {
			seen[va] = true
			want, mapped := sh.entries[va]
			if !mapped || pte.WithoutFlags(rmMask) != want.WithoutFlags(rmMask) {
				o.record(Violation{Time: o.m.Eng.Now(), CPU: -1, Kind: "table-divergence",
					VA: va, ASID: sh.asid, Got: pte, Want: want})
			}
		})
		// Record in address order so the violation log is deterministic.
		var missing []ptable.VAddr
		for va := range sh.entries {
			if !seen[va] {
				missing = append(missing, va)
			}
		}
		sort.Slice(missing, func(i, j int) bool { return missing[i] < missing[j] })
		for _, va := range missing {
			o.record(Violation{Time: o.m.Eng.Now(), CPU: -1, Kind: "table-divergence",
				VA: va, ASID: sh.asid, Got: 0, Want: sh.entries[va]})
		}
	}
	o.stats.StaleCached = o.countStaleCached()
	return int(o.stats.Violations - before)
}

// countStaleCached scans every CPU's TLB for cached entries that disagree
// with the shadow of the table they came from. These are not violations
// (see the package comment) — the count exists so campaigns can see how
// much staleness the optimizations leave parked in TLBs.
func (o *Oracle) countStaleCached() uint64 {
	var n uint64
	for i := 0; i < o.m.NumCPUs(); i++ {
		if !o.m.CPU(i).Online() {
			continue // a dead CPU's frozen TLB grants nothing
		}
		for _, e := range o.m.CPU(i).TLB.Entries() {
			sh, ok := o.byASID[e.ASID]
			if !ok {
				continue
			}
			if _, stale := staleAgainst(sh, e.VA, e.PTE, false); stale {
				n++
			} else if e.PTE.Writable() && !sh.entries[e.VA.Page()].Writable() {
				n++
			}
		}
	}
	for i := 0; i < o.m.NumDevices(); i++ {
		d := o.m.Device(i)
		if !d.Online() {
			continue // a quarantined device's poisoned TLB grants nothing
		}
		for _, e := range d.TLB.Entries() {
			sh, ok := o.byASID[e.ASID]
			if !ok {
				continue
			}
			if _, stale := staleAgainst(sh, e.VA, e.PTE, false); stale {
				n++
			} else if e.PTE.Writable() && !sh.entries[e.VA.Page()].Writable() {
				n++
			}
		}
	}
	return n
}

// ShadowSnap is one shadowed page table's state in wire form: the valid
// mappings in ascending VA order (map iteration order never leaks).
type ShadowSnap struct {
	ASID    uint16      `json:"asid,omitempty"`
	Kernel  bool        `json:"kernel,omitempty"`
	Entries [][2]uint32 `json:"entries,omitempty"` // [va, pte] pairs, VA-ascending
}

// Snap is the oracle's complete state in wire form (DESIGN.md §14):
// counters, retained violations, and every shadow table with its mappings
// sorted by VA.
type Snap struct {
	Stats      Stats           `json:"stats"`
	Violations []string        `json:"violations,omitempty"`
	Shadows    []ShadowSnap    `json:"shadows,omitempty"`
	Devices    []DevOracleSnap `json:"devices,omitempty"`
}

// Snapshot captures the oracle's complete state in a fixed wire order:
// shadows in tracking order, entries in VA order, violations in recording
// order. Nil-safe like every oracle method.
func (o *Oracle) Snapshot() Snap {
	if o == nil {
		return Snap{}
	}
	s := Snap{Stats: o.stats}
	for _, v := range o.violations {
		s.Violations = append(s.Violations, v.String())
	}
	for _, sh := range o.shadows {
		ss := ShadowSnap{ASID: uint16(sh.asid), Kernel: sh.kernel}
		vas := make([]ptable.VAddr, 0, len(sh.entries))
		for va := range sh.entries {
			vas = append(vas, va)
		}
		sort.Slice(vas, func(i, j int) bool { return vas[i] < vas[j] })
		for _, va := range vas {
			ss.Entries = append(ss.Entries, [2]uint32{uint32(va), uint32(sh.entries[va])})
		}
		s.Shadows = append(s.Shadows, ss)
	}
	s.Devices = o.devSnaps()
	return s
}

// Stats returns a snapshot of the oracle counters.
func (o *Oracle) Stats() Stats {
	if o == nil {
		return Stats{}
	}
	return o.stats
}

// Violations returns the retained violation records (at most maxViolations;
// Stats().Violations has the full count).
func (o *Oracle) Violations() []Violation {
	if o == nil {
		return nil
	}
	out := make([]Violation, len(o.violations))
	copy(out, o.violations)
	return out
}

// ErrViolation is wrapped by every error Err returns.
var ErrViolation = errors.New("oracle")

// Err returns nil if no violation was observed, else an error wrapping
// ErrViolation that summarizes the first few.
func (o *Oracle) Err() error {
	if o == nil || o.stats.Violations == 0 {
		return nil
	}
	first := ""
	for _, v := range o.violations[:min(len(o.violations), 3)] {
		first += "\n  " + v.String()
	}
	return fmt.Errorf("%w: %d TLB-consistency violation(s)%s", ErrViolation, o.stats.Violations, first)
}
