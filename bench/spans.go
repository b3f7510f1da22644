package main

import (
	"encoding/json"
	"os"
	"time"
)

// spanLog records host-time spans around the benchmark's calls into the
// simulator — sample → world → build/run/snapshot/collect where the entry
// points allow the split — and writes them as a Chrome trace (load in
// chrome://tracing or Perfetto). Spans stay in memory until write.
// A nil *spanLog records nothing.
type spanLog struct {
	t0    time.Time
	spans []traceEvent
	open  []int // indexes of open spans, innermost last
	mark0 time.Time
}

// traceEvent is one Chrome trace "complete" event.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // µs since the sample began
	Dur  float64        `json:"dur"` // µs
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

func newSpanLog() *spanLog {
	now := time.Now()
	return &spanLog{t0: now, mark0: now}
}

func (l *spanLog) micros(t time.Time) float64 { return float64(t.Sub(l.t0).Nanoseconds()) / 1e3 }

func (l *spanLog) add(name string, start, end time.Time) int {
	parent := -1
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	l.spans = append(l.spans, traceEvent{
		Name: name, Ph: "X", TS: l.micros(start), Dur: l.micros(end) - l.micros(start), PID: 1, TID: 1,
		Args: map[string]any{"id": len(l.spans), "parent": parent},
	})
	return len(l.spans) - 1
}

func (l *spanLog) begin(name string) {
	if l == nil {
		return
	}
	now := time.Now()
	l.open = append(l.open, l.add(name, now, now))
	l.mark0 = now
}

func (l *spanLog) end() {
	if l == nil || len(l.open) == 0 {
		return
	}
	i := l.open[len(l.open)-1]
	l.open = l.open[:len(l.open)-1]
	now := time.Now()
	l.spans[i].Dur = l.micros(now) - l.spans[i].TS
	l.mark0 = now
}

// mark closes a span that began at the previous mark, begin or end. The
// workloads whose worlds are built and run inside one entry point are
// split into worlds this way, at each Observe call. Inside a span opened
// by a workload that splits its world explicitly it records nothing.
func (l *spanLog) mark(name string) {
	if l == nil || len(l.open) != 1 {
		return
	}
	now := time.Now()
	l.add(name, l.mark0, now)
	l.mark0 = now
}

func (l *spanLog) write(path string) error {
	data, err := json.Marshal(map[string]any{"traceEvents": l.spans, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
