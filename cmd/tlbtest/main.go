// Command tlbtest is the paper's §5.1 TLB-consistency tester as a
// standalone tool: child threads increment counters in a shared read-write
// page, the main thread reprotects the page read-only and immediately
// snapshots the counters, the spinning children take unrecoverable write
// faults, and any counter that advanced after the snapshot exposes an
// inconsistent TLB entry.
//
// With -strategy none the tool demonstrates the failure; with the default
// Mach shootdown it demonstrates the fix, and reports the basic cost of
// the single k-processor shootdown the run causes.
//
// -trace writes a Chrome trace-event timeline of the run, -metrics a
// Prometheus-style snapshot, -profile the virtual-time profiler's folded
// stacks and per-shootdown critical paths, and -format json a
// machine-readable result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"

	"shootdown/internal/baseline"
	"shootdown/internal/core"
	"shootdown/internal/experiments"
	"shootdown/internal/machine"
	"shootdown/internal/workload"
)

func main() {
	cpus := flag.Int("cpus", 16, "number of simulated processors")
	children := flag.Int("children", 4, "child threads (processors shot at)")
	seed := flag.Int64("seed", 1, "simulation seed")
	strategy := flag.String("strategy", "shootdown",
		"consistency mechanism: shootdown, none, hardware-remote, postponed-ipi, timer-flush")
	format := flag.String("format", "table", "result output format: table or json")
	cli := experiments.CLI{Tool: "tlbtest"}
	cli.RegisterFlags(flag.CommandLine, 1<<20)
	flag.Parse()

	switch *format {
	case "table", "json":
	default:
		fmt.Fprintf(os.Stderr, "tlbtest: unknown format %q (want table or json)\n", *format)
		os.Exit(2)
	}

	cfg := workload.TesterConfig{Children: *children, App: workload.AppConfig{NoTimer: true}}
	switch *strategy {
	case "shootdown":
		// default strategy
	case "none":
		cfg.App.Strategy = func(*machine.Machine) (core.Strategy, error) {
			return baseline.NewNone(), nil
		}
	default:
		i := slices.IndexFunc(experiments.Mechanisms, func(m experiments.Mechanism) bool { return m.Name == *strategy })
		if i < 0 {
			fmt.Fprintf(os.Stderr, "tlbtest: unknown strategy %q\n", *strategy)
			os.Exit(2)
		}
		cfg.App = experiments.Mechanisms[i].App
	}

	in, err := cli.Instrument()
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlbtest: %v\n", err)
		os.Exit(2)
	}
	// Set the machine and apply the hooks without clobbering the
	// strategy/hardware overrides the -strategy switch just installed.
	cfg.App.NCPUs, cfg.App.Seed = *cpus, *seed
	cfg.App = in.App(cfg.App)

	res, err := workload.RunTester(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlbtest: %v\n", err)
		os.Exit(1)
	}

	if err := cli.Finish(); err != nil {
		fmt.Fprintf(os.Stderr, "tlbtest: %v\n", err)
		os.Exit(1)
	}

	if *format == "json" {
		doc := struct {
			CPUs     int                   `json:"cpus"`
			Children int                   `json:"children"`
			Seed     int64                 `json:"seed"`
			Strategy string                `json:"strategy"`
			Result   workload.TesterResult `json:"result"`
		}{*cpus, *children, *seed, *strategy, res}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintf(os.Stderr, "tlbtest: json: %v\n", err)
			os.Exit(1)
		}
		if res.Inconsistent {
			os.Exit(1)
		}
		return
	}

	fmt.Printf("TLB consistency tester: %d CPUs, %d children, strategy %s\n",
		*cpus, *children, *strategy)
	fmt.Printf("counters at reprotect:  %v\n", res.Saved)
	fmt.Printf("counters after faults:  %v\n", res.Final)
	if res.Inconsistent {
		fmt.Printf("\nINCONSISTENT: counters advanced after vm_protect returned —\n")
		fmt.Printf("a stale TLB entry allowed writes to a read-only page.\n")
		os.Exit(1)
	}
	fmt.Printf("\nconsistent: no write completed after vm_protect returned\n")
	fmt.Printf("vm_protect latency: %.0f µs\n", res.ProtectUS)
	if res.UserEvents == 1 {
		fmt.Printf("shootdown: %d processors shot at, initiator elapsed %.0f µs\n",
			res.ProcsShot, res.ShootUS)
	}
}
