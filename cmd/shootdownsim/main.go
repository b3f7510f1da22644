// Command shootdownsim regenerates the tables and figures of "Translation
// Lookaside Buffer Consistency: A Software Approach" (Black et al., ASPLOS
// 1989) on the simulated multiprocessor.
//
// Usage:
//
//	shootdownsim [flags] <experiment>...
//
// The experiments are the entries of experiments.Catalog — Figure 2,
// Tables 1-4, §6.1, §8, the §9 ablations, and this repository's
// extensions, robustness campaigns and profiles — plus "all", which runs
// every one; `shootdownsim -h` lists them.
//
// -faults injects deterministic hardware faults (dropped/delayed IPIs, slow
// responders, bus jitter) into every kernel; -failstop and -hotplug add
// processor fail-stop and hot-plug faults; -oracle attaches an independent
// TLB-consistency checker that fails a run if any stale translation is
// granted. -repro replays a minimized reproducer from a chaos campaign.
//
// -trace captures a Chrome trace-event (Perfetto) session timeline of every
// kernel the experiments build; -metrics writes a Prometheus-style counter
// and histogram snapshot; -profile writes the virtual-time profiler's
// folded stacks, per-CPU phase timeline, lock/bus contention profile, and
// per-shootdown critical paths into a directory; -format selects
// human-readable tables or machine-readable JSON/CSV.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
	"unicode/utf8"

	"shootdown/internal/experiments"
	"shootdown/internal/fault"
	"shootdown/internal/fault/shrink"
	"shootdown/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses argv, runs the named experiments,
// and returns the exit status.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("shootdownsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed     = fs.Int64("seed", 42, "simulation seed (jitter, scheduling, workload randomness)")
		runs     = fs.Int("runs", 10, "runs per data point of the sweeps (Figure 2, scaling, profiling)")
		format   = fs.String("format", "table", "result output format: table, json, or csv")
		faults   = fs.String("faults", "", `fault-injection spec applied to every kernel, e.g. "drop=0.1,delay=0.2,delaymax=2ms" (keys: drop, delay, delaymax, slow, slowmax, stuck, stuckfor, spurious, jitter, jittermax, failstop, failby, revive, reviveafter; "none" disables). The fault campaign adds this as a custom scenario.`)
		oracleOn = fs.Bool("oracle", false, "attach the independent TLB-consistency oracle to every kernel; any stale translation granted fails the run")
		failstop = fs.Bool("failstop", false, `processor fail-stop faults in every kernel (shorthand for -faults "failstop=0.9,failby=8ms"); failed CPUs stay down`)
		hotplug  = fs.Bool("hotplug", false, `fail-stop plus hot-plug: failed CPUs revive with a cold TLB (shorthand for -faults "failstop=0.9,failby=8ms,revive=1,reviveafter=4ms")`)
		repro    = fs.String("repro", "", "replay a minimized reproducer JSON file (from a chaos campaign or the testdata corpus) and exit; exits non-zero if the replay diverges from the recorded verdict")
		chaosbug = fs.Bool("chaosbug", false, "plant the intentional stale-translation bug in the fail-stop and device chaos campaigns' runs (stale-TLB-after-revive and skip-dev-inval respectively), so they fail on purpose (pair with -flight to exercise the black-box path end to end)")
		devices  = fs.Int("devices", 2, "device-TLB count of the device chaos campaign's DMA-streaming workload")
		devfault = fs.String("devfaults", "", `extra device-fault spec run as a custom scenario of the device chaos campaign, e.g. "devwedge=0.3,devstall=0.5,devstallmax=6ms" (keys: devstall, devstallmax, devdrop, devwedge, devreorder)`)
		travelAt = fs.Duration("at", 5*time.Millisecond, "virtual-time instant the time-travel check snapshots and restores to")
	)
	// cli carries the shared -trace/-tracebuf/-metrics/-profile plumbing.
	cli := experiments.CLI{Tool: "shootdownsim"}
	cli.RegisterFlags(fs, 1<<21)
	fs.Usage = func() { usage(fs) }
	if err := fs.Parse(argv); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fail := func(code int, format string, a ...any) int {
		fmt.Fprintf(stderr, "shootdownsim: "+format+"\n", a...)
		return code
	}
	if *repro != "" {
		return replayRepro(*repro, stdout, stderr)
	}
	names := fs.Args()
	if len(names) == 0 {
		fs.Usage()
		return 2
	}
	switch *format {
	case "table", "json", "csv":
	default:
		return fail(2, "unknown format %q (want table, json, or csv)", *format)
	}
	for _, c := range []struct {
		flag string
		v    int
	}{{"runs", *runs}, {"devices", *devices}} {
		if c.v < 1 {
			return fail(2, "-%s %d: want at least 1", c.flag, c.v)
		}
	}
	if *travelAt < 0 {
		return fail(2, "-at %v: want at least 0", *travelAt)
	}
	known := map[string]bool{"all": true}
	for _, e := range experiments.Catalog {
		known[e.Name] = true
	}
	want := map[string]bool{}
	for _, n := range names {
		if !known[n] {
			fmt.Fprintf(stderr, "shootdownsim: unknown experiment %q\n\n", n)
			fs.Usage()
			return 2
		}
		want[n] = true
	}

	// Observability hooks: one session tracer and one profiler shared by
	// every kernel the experiments build, and a metrics snapshot of the
	// last completed run.
	inp, err := cli.Instrument()
	if err != nil {
		return fail(2, "%v", err)
	}
	in := *inp
	if *faults != "" {
		fc, err := fault.ParseSpec(*faults)
		if err != nil {
			return fail(2, "-faults: %v", err)
		}
		fc.Seed = *seed
		in.Faults = &fc
	}
	if *failstop || *hotplug {
		fc := fault.Config{Seed: *seed}
		if in.Faults != nil {
			fc = *in.Faults
		}
		fc.FailStop, fc.FailStopBy = 0.9, 8_000_000
		if *hotplug {
			fc.Revive, fc.ReviveAfterMax = 1, 4_000_000
		}
		in.Faults = &fc
	}
	in.Oracle = *oracleOn

	// The wall clock reads real time, which the simulated packages may
	// not, so package main injects it.
	progStart := time.Now()
	args := &experiments.Args{
		Seed:      *seed,
		Runs:      *runs,
		In:        in,
		PlantBug:  *chaosbug,
		Devices:   *devices,
		DevFaults: *devfault,
		At:        sim.Time(*travelAt),
		WallClock: func() int64 { return time.Since(progStart).Milliseconds() },
	}

	var results []experiments.Named
	for _, e := range experiments.Catalog {
		if !want["all"] && !want[e.Name] {
			continue
		}
		start := time.Now()
		res, err := e.Run(args)
		if err != nil {
			return fail(1, "%s: %v", e.Name, err)
		}
		results = append(results, experiments.Named{Name: e.Name, Result: res})
		if *format == "table" {
			if err := experiments.WriteText(stdout, res.Doc()); err != nil {
				return fail(1, "%s: %v", e.Name, err)
			}
			fmt.Fprintf(stdout, "\n[%s completed in %.1fs wall clock]\n\n", e.Name, time.Since(start).Seconds())
		}
	}

	switch *format {
	case "json":
		if err := experiments.WriteJSON(stdout, experiments.Envelope{
			Seed: *seed, Runs: *runs, Experiments: results,
		}); err != nil {
			return fail(1, "json: %v", err)
		}
	case "csv":
		if err := experiments.WriteCSV(stdout, results); err != nil {
			return fail(1, "csv: %v", err)
		}
	}

	if err := cli.Finish(); err != nil {
		return fail(1, "%v", err)
	}
	return 0
}

// usage prints the command's synopsis, the catalog's experiments and the
// flags.
func usage(fs *flag.FlagSet) {
	w := fs.Output()
	fmt.Fprint(w, `usage: shootdownsim [flags] <experiment>...

Reproduces the evaluation of the Mach TLB shootdown paper (ASPLOS 1989)
on a simulated 16-processor Encore Multimax.

experiments:
`)
	for _, e := range append(experiments.Catalog, experiments.Experiment{Name: "all", Doc: "everything above"}) {
		fmt.Fprintf(w, "  %-10s  %s\n", e.Name, strings.Join(wrap(e.Doc, 62), "\n"+strings.Repeat(" ", 14)))
	}
	fmt.Fprint(w, "\nflags:\n")
	fs.PrintDefaults()
}

// wrap breaks s into lines of at most width characters at spaces (a
// longer word gets a line of its own).
func wrap(s string, width int) []string {
	var lines []string
	line := ""
	for _, word := range strings.Fields(s) {
		if line != "" && utf8.RuneCountInString(line+" "+word) > width {
			lines = append(lines, line)
			line = ""
		}
		if line != "" {
			line += " "
		}
		line += word
	}
	return append(lines, line)
}

// replayRepro re-executes a minimized chaos reproducer: exit 0 only if
// the replay reaches exactly the recorded verdict.
func replayRepro(path string, stdout, stderr io.Writer) int {
	r, err := shrink.Load(path)
	if err != nil {
		fmt.Fprintf(stderr, "shootdownsim: -repro: %v\n", err)
		return 2
	}
	verdict, detail, err := experiments.ReplayRepro(r)
	if err != nil {
		fmt.Fprintf(stderr, "shootdownsim: -repro: %v\n", err)
		return 2
	}
	keep := make([]string, len(r.Keep))
	for i, id := range r.Keep {
		keep[i] = id.String()
	}
	fmt.Fprintf(stdout, "repro %s: workload=%s ncpus=%d seed=%d schedule=[%s]\n",
		path, r.Workload, r.NCPUs, r.Seed, strings.Join(keep, " "))
	if verdict == r.Verdict {
		fmt.Fprintf(stdout, "replay reproduced the recorded verdict %q", verdict)
		if detail != "" {
			fmt.Fprintf(stdout, ": %s", firstLine(detail))
		}
		fmt.Fprintln(stdout)
		return 0
	}
	fmt.Fprintf(stdout, "DIVERGENCE: replay verdict %q, recorded %q", verdict, r.Verdict)
	if detail != "" {
		fmt.Fprintf(stdout, " (%s)", firstLine(detail))
	}
	fmt.Fprintln(stdout)
	return 1
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
