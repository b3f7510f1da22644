package profile

// JSON export of the causal reconstructor's per-shootdown DAGs: the wire
// format cmd/tlbtrace queries and diffs, written as shootdowns.json by
// WriteDir and embedded in flight-recorder black boxes as the "dags"
// provider. Attribution is precomputed so consumers need no knowledge of
// the phase-accounting internals; timestamps are rebased virtual
// nanoseconds, zero meaning "never happened".

import (
	"encoding/json"
	"io"
)

// ShootdownExportFormat identifies the per-shootdown DAG wire format.
const ShootdownExportFormat = "shootdown-profile/v1"

// RespExport is one responder's leg of an exported shootdown DAG.
type RespExport struct {
	CPU          int   `json:"cpu"`
	PostNS       int64 `json:"post_ns,omitempty"`
	DeliverNS    int64 `json:"deliver_ns,omitempty"`
	AckNS        int64 `json:"ack_ns,omitempty"`
	FlushNS      int64 `json:"flush_ns,omitempty"`
	MaskedAtPost bool  `json:"masked_at_post,omitempty"`
	// The post→ack latency attribution, precomputed with the machine's
	// interrupt latency.
	Components
}

// ShootExport is one shootdown instance's DAG in wire form.
type ShootExport struct {
	Seq    int  `json:"seq"`
	CPU    int  `json:"cpu"`
	Kernel bool `json:"kernel"`
	Pages  int  `json:"pages"`
	// The initiator's critical-path nodes: Sync entry, IPIs out, spin
	// start, Sync return. Send/Wait are zero for local-only shootdowns;
	// End is zero when the run ended mid-shootdown.
	StartNS    int64        `json:"start_ns"`
	SendNS     int64        `json:"send_ns,omitempty"`
	WaitNS     int64        `json:"wait_ns,omitempty"`
	EndNS      int64        `json:"end_ns,omitempty"`
	Responders []RespExport `json:"responders,omitempty"`
	// LastCPU is the responder whose barrier arrival completed the
	// shootdown (-1 if none acked in time).
	LastCPU int `json:"last_cpu"`
}

// ShootdownsExport is the whole export envelope.
type ShootdownsExport struct {
	Format   string        `json:"format"`
	IRQLatNS int64         `json:"irq_lat_ns"`
	Records  []ShootExport `json:"shootdowns"`
}

// ExportShootdowns converts the reconstructor's records (in begin order)
// into wire form. Safe on a nil profiler (empty export).
func ExportShootdowns(p *Profiler) ShootdownsExport {
	out := ShootdownsExport{Format: ShootdownExportFormat, IRQLatNS: p.IRQLatencyNS()}
	for _, rec := range p.Shootdowns() {
		se := ShootExport{
			Seq:     rec.Seq,
			CPU:     rec.CPU,
			Kernel:  rec.Kernel,
			Pages:   rec.Pages,
			StartNS: rec.StartT,
			SendNS:  rec.SendT,
			WaitNS:  rec.WaitT,
			EndNS:   rec.EndT,
			LastCPU: -1,
		}
		if last := rec.LastResponder(); last != nil {
			se.LastCPU = last.CPU
		}
		for _, rr := range rec.Resp {
			se.Responders = append(se.Responders, RespExport{
				CPU:          rr.CPU,
				PostNS:       rr.PostT,
				DeliverNS:    rr.DeliverT,
				AckNS:        rr.AckT,
				FlushNS:      rr.FlushT,
				MaskedAtPost: rr.MaskedAtPost,
				Components:   rr.Attribution(out.IRQLatNS),
			})
		}
		out.Records = append(out.Records, se)
	}
	return out
}

// WriteShootdowns writes the export as indented JSON.
func (p *Profiler) WriteShootdowns(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ExportShootdowns(p))
}
