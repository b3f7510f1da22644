package kernel

import (
	"shootdown/internal/stats"
	"shootdown/internal/tlb"
	"shootdown/internal/trace"
)

// latencyHistogram buckets shootdown latencies: the paper's measurements
// span roughly 100 µs to a few ms, so log-spaced buckets from 1 µs to
// 100 ms cover both tails.
func latencyHistogram(us []float64) *stats.Histogram {
	h := stats.NewHistogram(1, 100_000, 5)
	h.ObserveAll(us...)
	return h
}

// Metrics returns a Prometheus-style snapshot of the run: shootdown
// protocol counters, TLB event counters summed across CPUs, bus traffic,
// latency histograms distilled from the xpr buffer, and the drop counters
// that tell a truncated trace apart from a complete one. Render it with
// MetricSet.WriteTo.
func (k *Kernel) Metrics() *trace.MetricSet {
	ms := trace.NewMetricSet()
	ms.Gauge("sim_virtual_time_seconds",
		"Virtual time at snapshot.", float64(k.Eng.Now())/1e9, nil)

	if k.Shoot != nil {
		s := k.Shoot.Stats()
		shoot := func(name, help string, v uint64) {
			ms.Counter("shootdown_"+name, help, float64(v), nil)
		}
		shoot("syncs_total", "Sync calls (shootdowns invoked).", s.Syncs)
		shoot("remote_total", "Syncs involving at least one other CPU.", s.RemoteShootdowns)
		shoot("actions_queued_total", "Consistency actions queued on responders.", s.ActionsQueued)
		shoot("ipis_sent_total", "Shootdown IPIs sent.", s.IPIsSent)
		shoot("ipis_coalesced_total", "IPI sends skipped: interrupt already pending.", s.IPIsCoalesced)
		shoot("idle_skipped_total", "Idle CPUs queued-to but not interrupted.", s.IdleSkipped)
		shoot("responses_total", "Responder passes.", s.Responses)
		shoot("queue_overflows_total", "Action-queue overflows (degraded to full flush).", s.QueueOverflows)
		shoot("full_flushes_total", "Whole-buffer (or per-ASID) flushes.", s.FullFlushes)
		shoot("entries_invalidated_total", "Individual TLB entries invalidated.", s.EntriesInvalidated)
		shoot("lazy_releases_total", "Whole-space flushes of retained tagged spaces.", s.LazyReleases)
		shoot("watchdog_timeouts_total", "Responder-ack waits that exceeded the watchdog timeout.", s.WatchdogTimeouts)
		shoot("watchdog_retries_total", "IPIs re-sent by the watchdog.", s.WatchdogRetries)
		shoot("watchdog_escalations_total", "Stragglers forced onto the full-flush path.", s.WatchdogEscalations)
		shoot("watchdog_member_rescues_total", "Waits abandoned because the responder fail-stopped.", s.WatchdogMembershipRescues)
		shoot("offline_skipped_total", "CPUs excluded from shootdowns for being offline.", s.OfflineSkipped)
		ms.Histogram("shootdown_watchdog_recovery_microseconds",
			"Watchdog recovery latency (first timeout to responder quiescence, µs).",
			latencyHistogram(k.Shoot.WatchdogRecoveryUS()), nil)
	}

	if inj := k.M.Faults(); inj != nil {
		f := inj.Stats()
		fc := func(name, help string, v uint64) {
			ms.Counter("fault_"+name, help, float64(v), nil)
		}
		fc("dropped_ipis_total", "IPIs silently discarded by the injector.", f.DroppedIPIs)
		fc("delayed_ipis_total", "IPIs delivered late by the injector.", f.DelayedIPIs)
		fc("spurious_ipis_total", "IPIs delivered that nobody sent.", f.SpuriousIPIs)
		fc("slow_responses_total", "Responder passes stalled by the injector.", f.SlowResponses)
		fc("stuck_responses_total", "Responder passes wedged for the stuck duration.", f.StuckResponses)
		fc("jittered_bus_ops_total", "Bus operations given extra latency.", f.JitteredBusOps)
		fc("failstops_total", "Processor fail-stops applied.", f.FailStops)
		fc("revives_total", "Processors brought back online.", f.Revives)
	}
	ms.Counter("machine_lock_breaks_total",
		"Spin locks broken because their owner fail-stopped.", float64(k.M.LockBreaks()), nil)
	ms.Counter("machine_epoch",
		"Membership epoch (CPU lifecycle transitions).", float64(k.M.Epoch()), nil)

	if k.Oracle != nil {
		o := k.Oracle.Stats()
		oc := func(name, help string, v uint64) {
			ms.Counter("oracle_"+name, help, float64(v), nil)
		}
		oc("use_checks_total", "Translations checked at TLB-use points.", o.UseChecks)
		oc("insert_checks_total", "Translations checked at TLB-insert points.", o.InsertChecks)
		oc("sync_checks_total", "Full physical-vs-shadow table comparisons.", o.SyncChecks)
		oc("violations_total", "Stale translations granted (any nonzero value is a protocol bug).", o.Violations)
		oc("cpu_fails_total", "Fail-stops observed by the oracle.", o.CPUFails)
		oc("cpu_revives_total", "Revives observed (TLB-empty asserted) by the oracle.", o.CPURevives)
		ms.Gauge("oracle_stale_cached_entries",
			"Stale entries parked in TLBs at the last sync check (legal; informational).",
			float64(o.StaleCached), nil)
	}

	var agg tlb.Stats
	for i := 0; i < k.M.NumCPUs(); i++ {
		s := k.M.CPU(i).TLB.Stats()
		agg.Hits += s.Hits
		agg.Misses += s.Misses
		agg.Inserts += s.Inserts
		agg.Evictions += s.Evictions
		agg.Invalidates += s.Invalidates
		agg.Flushes += s.Flushes
		agg.Writebacks += s.Writebacks
	}
	ms.Counter("tlb_hits_total", "TLB hits, all CPUs.", float64(agg.Hits), nil)
	ms.Counter("tlb_misses_total", "TLB misses, all CPUs.", float64(agg.Misses), nil)
	ms.Counter("tlb_inserts_total", "TLB entries inserted (hardware reload).", float64(agg.Inserts), nil)
	ms.Counter("tlb_evictions_total", "TLB entries evicted by replacement.", float64(agg.Evictions), nil)
	ms.Counter("tlb_invalidates_total", "Single-entry invalidations that hit.", float64(agg.Invalidates), nil)
	ms.Counter("tlb_flushes_total", "Whole-buffer or per-ASID flushes.", float64(agg.Flushes), nil)
	ms.Counter("tlb_writebacks_total", "R/M bits written back to PTEs.", float64(agg.Writebacks), nil)

	ms.Counter("bus_transactions_total", "Memory-bus transactions.", float64(k.M.Bus.Transactions), nil)
	ms.Counter("bus_stall_seconds_total", "Time CPUs spent queued for the bus.",
		float64(k.M.Bus.StallTime)/1e9, nil)
	ms.Gauge("bus_utilization_ratio", "Fraction of virtual time the bus was busy.",
		k.M.Bus.Utilization(k.Eng.Now()), nil)

	kernelUS, userUS := k.Trace.InitiatorTimes()
	ms.Histogram("shootdown_initiator_microseconds",
		"Initiator-side shootdown latency (µs), kernel pmap.",
		latencyHistogram(kernelUS), map[string]string{"pmap": "kernel"})
	ms.Histogram("shootdown_initiator_microseconds",
		"Initiator-side shootdown latency (µs), user pmap.",
		latencyHistogram(userUS), map[string]string{"pmap": "user"})
	ms.Histogram("shootdown_responder_microseconds",
		"Responder interrupt-service latency (µs).",
		latencyHistogram(k.Trace.ResponderTimes()), nil)

	ms.Counter("xpr_records_total", "Records held in the xpr buffer.", float64(k.Trace.Len()), nil)
	ms.Counter("xpr_dropped_records_total",
		"xpr records lost to wraparound (nonzero means the buffer was undersized).",
		float64(k.Trace.Dropped()), nil)
	if tr := k.cfg.Tracer; tr.Cap() > 0 {
		ms.Counter("trace_events_total", "Events held in the span tracer.", float64(tr.Len()), nil)
		ms.Counter("trace_dropped_events_total",
			"Span-tracer events lost to wraparound.", float64(tr.Dropped()), nil)
	}
	return ms
}

// Tracer returns the kernel's observation stream (Config.Tracer): the
// session ring, if one was configured, with its subscribers.
func (k *Kernel) Tracer() *trace.Tracer { return k.cfg.Tracer }
