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
	"io"
	"os"
	"slices"

	"shootdown/internal/baseline"
	"shootdown/internal/core"
	"shootdown/internal/experiments"
	"shootdown/internal/machine"
	"shootdown/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses argv, runs the tester, and returns
// the exit status.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tlbtest", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cpus := fs.Int("cpus", 16, "number of simulated processors")
	children := fs.Int("children", 4, "child threads (processors shot at)")
	seed := fs.Int64("seed", 1, "simulation seed")
	strategy := fs.String("strategy", "shootdown",
		"consistency mechanism: shootdown, none, hardware-remote, postponed-ipi, timer-flush")
	format := fs.String("format", "table", "result output format: table or json")
	cli := experiments.CLI{Tool: "tlbtest"}
	cli.RegisterFlags(fs, 1<<20)
	if err := fs.Parse(argv); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fail := func(code int, format string, a ...any) int {
		fmt.Fprintf(stderr, "tlbtest: "+format+"\n", a...)
		return code
	}

	switch *format {
	case "table", "json":
	default:
		return fail(2, "unknown format %q (want table or json)", *format)
	}
	if *cpus < 2 {
		return fail(2, "-cpus %d: want at least 2", *cpus)
	}
	if *children < 1 || *children >= *cpus {
		return fail(2, "-children %d: want 1 <= children < cpus (%d)", *children, *cpus)
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
			return fail(2, "unknown strategy %q", *strategy)
		}
		cfg.App = experiments.Mechanisms[i].App
	}

	in, err := cli.Instrument()
	if err != nil {
		return fail(2, "%v", err)
	}
	// Set the machine and apply the hooks without clobbering the
	// strategy/hardware overrides the -strategy switch just installed.
	cfg.App.NCPUs, cfg.App.Seed = *cpus, *seed
	cfg.App = in.App(cfg.App)

	res, err := workload.RunTester(cfg)
	if err != nil {
		return fail(1, "%v", err)
	}

	if err := cli.Finish(); err != nil {
		return fail(1, "%v", err)
	}

	if *format == "json" {
		doc := struct {
			CPUs     int                   `json:"cpus"`
			Children int                   `json:"children"`
			Seed     int64                 `json:"seed"`
			Strategy string                `json:"strategy"`
			Result   workload.TesterResult `json:"result"`
		}{*cpus, *children, *seed, *strategy, res}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			return fail(1, "json: %v", err)
		}
		if res.Inconsistent {
			return 1
		}
		return 0
	}

	fmt.Fprintf(stdout, "TLB consistency tester: %d CPUs, %d children, strategy %s\n",
		*cpus, *children, *strategy)
	fmt.Fprintf(stdout, "counters at reprotect:  %v\n", res.Saved)
	fmt.Fprintf(stdout, "counters after faults:  %v\n", res.Final)
	if res.Inconsistent {
		fmt.Fprintf(stdout, "\nINCONSISTENT: counters advanced after vm_protect returned —\n")
		fmt.Fprintf(stdout, "a stale TLB entry allowed writes to a read-only page.\n")
		return 1
	}
	fmt.Fprintf(stdout, "\nconsistent: no write completed after vm_protect returned\n")
	fmt.Fprintf(stdout, "vm_protect latency: %.0f µs\n", res.ProtectUS)
	if res.UserEvents == 1 {
		fmt.Fprintf(stdout, "shootdown: %d processors shot at, initiator elapsed %.0f µs\n",
			res.ProcsShot, res.ShootUS)
	}
	return 0
}
