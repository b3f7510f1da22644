// Command tlbtrace queries, validates, and diffs the repo's run artifacts:
// Chrome trace-event session timelines (-trace), virtual-time profile
// directories (-profile), and flight-recorder black boxes (-flight). It is
// the post-mortem half of the observability stack — the tool you point at
// a CI failure's black box or at two profiled runs to find which shootdown
// phase got slower.
//
// Usage:
//
//	tlbtrace validate [-results results.json] [-blackbox box.json] [trace.json]
//	tlbtrace query [-cpu N] [-cat c] [-name substr] [-from us] [-to us] [-hist] [-events] <trace.json|blackbox.json>
//	tlbtrace dag [-seq N] <shootdowns.json|profile-dir|blackbox.json>
//	tlbtrace diff <old> <new>   (each: shootdowns.json | profile dir | black box)
//
// validate is the CI smoke check (the former scripts/validatetrace):
// balanced spans from every instrumented layer, well-formed results
// envelopes, internally consistent black boxes. It sniffs whole-simulation
// snapshots — standalone files or a black box's embedded restore point —
// and verifies their digest and JSON round trip, and checks a device
// black box's "devices" section (completion-queue watermarks, quarantine
// coupling). query filters spans and aggregates their durations
// (quantiles, optional log2 histogram); -events counts raw instants
// instead, which is how device doorbell/completion/quarantine markers
// surface. dag
// prints one shootdown's critical path with per-responder attribution.
// diff aligns two runs by shootdown identity and attributes the
// virtual-time delta to DAG edges.
package main

import (
	"flag"
	"fmt"
	"os"

	"shootdown/internal/artifact"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: tlbtrace <command> [flags] <args>

commands:
  validate [-results results.json] [-blackbox box.json] [trace.json|snapshot.json]
            check artifacts: a Chrome trace (balanced spans from every
            layer), a -format json results file, a flight-recorder black box
            (plus its embedded restore point), or a whole-simulation
            snapshot (digest + JSON round trip) — formats are sniffed
  query     [-cpu N] [-cat c] [-name substr] [-from us] [-to us] [-hist] [-events] <trace|blackbox>
            filter spans and aggregate durations per span name; -events
            tallies raw instants (device markers) instead of spans
  dag       [-seq N] <shootdowns.json|profile-dir|blackbox>
            print one shootdown's critical path (default: the slowest)
  diff      <old> <new>
            align two profiled runs by shootdown identity and attribute
            the virtual-time delta to DAG edges
  hostcost  [-top N] [-validate] [-mincoverage pct] <host-cost.json>
            render a host-cost/v1 artifact (shootdownsim -hostcost): per-
            phase host seconds / allocator deltas and the top-N allocating
            functions and packages; -validate checks internal consistency,
            -mincoverage fails unless every phase attributes within
            100-pct percent of its measured bytes
`)
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "validate":
		err = cmdValidate(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case "dag":
		err = cmdDAG(os.Args[2:])
	case "diff":
		err = cmdDiff(os.Args[2:])
	case "hostcost":
		err = cmdHostCost(os.Args[2:])
	default:
		fmt.Fprintf(os.Stderr, "tlbtrace: unknown command %q\n\n", os.Args[1])
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlbtrace: %v\n", err)
		os.Exit(1)
	}
}

// cmdValidate is the CI smoke check over any combination of artifacts.
func cmdValidate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	results := fs.String("results", "", "also validate a shootdownsim -format json output file")
	blackbox := fs.String("blackbox", "", "also validate a flight-recorder black box")
	fs.Parse(args)
	if fs.NArg() > 1 || (fs.NArg() == 0 && *results == "" && *blackbox == "") {
		return fmt.Errorf("usage: tlbtrace validate [-results results.json] [-blackbox box.json] [trace.json]")
	}
	if fs.NArg() == 1 {
		if artifact.SniffSnapshot(fs.Arg(0)) {
			// A standalone whole-simulation snapshot: digest + round trip.
			s, err := artifact.LoadSnapshot(fs.Arg(0))
			if err != nil {
				return err
			}
			summary, err := artifact.ValidateSnapshot(s)
			if err != nil {
				return fmt.Errorf("%s: %v", fs.Arg(0), err)
			}
			fmt.Printf("validate: %s: %s\n", fs.Arg(0), summary)
		} else {
			doc, err := artifact.LoadEvents(fs.Arg(0))
			if err != nil {
				return err
			}
			summary, err := doc.Validate()
			if err != nil {
				return fmt.Errorf("%s: %v", fs.Arg(0), err)
			}
			fmt.Printf("validate: %s: %s\n", fs.Arg(0), summary)
		}
	}
	if *results != "" {
		summary, err := artifact.ValidateResults(*results)
		if err != nil {
			return fmt.Errorf("%s: %v", *results, err)
		}
		fmt.Printf("validate: %s: %s\n", *results, summary)
	}
	if *blackbox != "" {
		box, err := artifact.LoadBlackBox(*blackbox)
		if err != nil {
			return err
		}
		summary, err := artifact.ValidateBlackBox(box)
		if err != nil {
			return fmt.Errorf("%s: %v", *blackbox, err)
		}
		fmt.Printf("validate: %s: %s\n", *blackbox, summary)
		// A box from a snapshot-taking run embeds a restore point; verify
		// its digest and round trip too. (Older boxes have no section.)
		if s, ok, err := artifact.SnapshotFromBox(box); err != nil {
			return fmt.Errorf("%s: %v", *blackbox, err)
		} else if ok {
			summary, err := artifact.ValidateSnapshot(s)
			if err != nil {
				return fmt.Errorf("%s: snapshots: %v", *blackbox, err)
			}
			fmt.Printf("validate: %s: snapshots: %s\n", *blackbox, summary)
		}
		// A box from a device-bearing run carries a "devices" section:
		// check its completion-queue and quarantine invariants.
		if devs, ok, err := artifact.DevicesFromBox(box); err != nil {
			return fmt.Errorf("%s: %v", *blackbox, err)
		} else if ok {
			summary, err := artifact.ValidateDevices(devs)
			if err != nil {
				return fmt.Errorf("%s: devices: %v", *blackbox, err)
			}
			fmt.Printf("validate: %s: devices: %s\n", *blackbox, summary)
		}
	}
	fmt.Println("validate: ok")
	return nil
}

// cmdQuery filters spans and aggregates durations.
func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	cpu := fs.Int("cpu", -1, "restrict to one CPU timeline (-1 = all)")
	cat := fs.String("cat", "", "exact category match: sim, machine, shootdown, tlb, kernel, device")
	name := fs.String("name", "", "substring match on the span name")
	from := fs.Float64("from", 0, "window start in virtual microseconds")
	to := fs.Float64("to", 0, "window end in virtual microseconds (0 = open)")
	hist := fs.Bool("hist", false, "also print a log2 duration histogram of the matched spans")
	events := fs.Bool("events", false, "count matched raw events per name instead of pairing spans (device doorbell/completion/quarantine markers are instants and only appear here)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: tlbtrace query [flags] <trace.json|blackbox.json>")
	}
	doc, err := artifact.LoadEvents(fs.Arg(0))
	if err != nil {
		return err
	}
	f := artifact.Filter{CPU: *cpu, Cat: *cat, Name: *name, FromUS: *from, ToUS: *to}
	if *events {
		counts := artifact.CountEvents(doc, f)
		if len(counts) == 0 {
			fmt.Println("query: no events matched")
			return nil
		}
		total := 0
		for _, c := range counts {
			total += c.Count
		}
		fmt.Printf("query: %d events matched (%d loaded, %d dropped by the ring)\n\n",
			total, len(doc.Events), doc.Dropped)
		fmt.Print(artifact.FormatEventTable(counts))
		return nil
	}
	matched := f.Select(artifact.Spans(doc))
	if len(matched) == 0 {
		fmt.Println("query: no spans matched")
		return nil
	}
	fmt.Printf("query: %d spans matched (%d events loaded, %d dropped by the ring)\n\n",
		len(matched), len(doc.Events), doc.Dropped)
	fmt.Print(artifact.FormatAggTable(artifact.Aggregate(matched)))
	if *hist {
		fmt.Println()
		fmt.Print(artifact.FormatHistogram(artifact.Histogram(matched)))
	}
	return nil
}

// cmdDAG prints one shootdown's critical path.
func cmdDAG(args []string) error {
	fs := flag.NewFlagSet("dag", flag.ExitOnError)
	seq := fs.Int("seq", -1, "shootdown sequence number (-1 = the slowest)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: tlbtrace dag [-seq N] <shootdowns.json|profile-dir|blackbox.json>")
	}
	exp, err := artifact.LoadShootdowns(fs.Arg(0))
	if err != nil {
		return err
	}
	if len(exp.Records) == 0 {
		return fmt.Errorf("%s: no shootdowns recorded", fs.Arg(0))
	}
	if *seq >= 0 {
		for _, r := range exp.Records {
			if r.Seq == *seq {
				fmt.Print(artifact.FormatDAG(exp, r))
				return nil
			}
		}
		return fmt.Errorf("%s: no shootdown with seq %d (have %d records)", fs.Arg(0), *seq, len(exp.Records))
	}
	r, ok := artifact.SlowestShootdown(exp)
	if !ok {
		return fmt.Errorf("%s: no shootdowns recorded", fs.Arg(0))
	}
	fmt.Print(artifact.FormatDAG(exp, r))
	return nil
}

// cmdDiff aligns two runs and attributes the delta.
func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: tlbtrace diff <old> <new>")
	}
	oldExp, err := artifact.LoadShootdowns(fs.Arg(0))
	if err != nil {
		return err
	}
	newExp, err := artifact.LoadShootdowns(fs.Arg(1))
	if err != nil {
		return err
	}
	fmt.Print(artifact.DiffShootdowns(oldExp, newExp).Format())
	return nil
}
