package experiments

import (
	"flag"
	"fmt"
	"io"
	"os"

	"shootdown/internal/core"
	"shootdown/internal/fault"
	"shootdown/internal/kernel"
	"shootdown/internal/profile"
	"shootdown/internal/trace"
	"shootdown/internal/workload"
)

// Instrument carries optional observability hooks through an experiment's
// kernel runs. An experiment reads it from Args.In (Fig2 from its
// trailing variadic parameter); the zero Instrument runs uninstrumented.
//
// Tracer, Profiler and Flight are shared by every kernel the experiment
// builds, joined into each kernel's one observation stream (trace.Stream;
// each run rebases it, so sequential runs occupy disjoint stretches of one
// session timeline). Observe is called exactly once with each kernel
// after its run is settled, whether or not the run failed — metrics
// harvesting hangs off it. No hook charges virtual
// time or consumes simulation randomness, so instrumented results are
// bit-identical to uninstrumented ones. Experiments that assemble a bare
// machine with no kernel (Pools) attach the stream but never call Observe.
//
// Faults and Oracle do not reach every experiment. The ones that run
// package workload's applications or assemble kernels of their own take
// both; the fault campaign runs Faults as one more scenario of its own.
// Pools builds a bare machine and ignores both. The chaos and devices
// campaigns and timetravel run their own fault scenarios with the oracle
// always on; of the hooks, chaos and devices take only Observe and Flight,
// and timetravel none.
type Instrument struct {
	Tracer  *trace.Tracer
	Observe func(*kernel.Kernel)
	// Faults injects deterministic hardware faults into every kernel the
	// experiment builds (nil = fault-free).
	Faults *fault.Config
	// Oracle attaches the TLB-consistency checker to every kernel.
	Oracle bool
	// Profiler attaches the virtual-time profiler to every kernel the
	// experiment builds (each build rebases it, like the tracer). Profiling
	// charges no virtual time, so profiled results are bit-identical to
	// unprofiled ones.
	Profiler *profile.Profiler
	// Flight attaches the flight recorder to every kernel the experiment
	// builds: watchdog escalations, oracle violations, and run-killing
	// errors dump a black box of recent events and per-layer state into
	// the recorder's directory. Like the other hooks it charges no virtual
	// time, so results are bit-identical with and without it.
	Flight *trace.Recorder
}

// injects reports whether the instrument injects faults: it carries an
// enabled fault config. A disabled one overrides nothing and arms nothing.
func (in Instrument) injects() bool { return in.Faults != nil && in.Faults.Enabled() }

// App applies the instrument to a workload configuration, for the
// experiments and commands (cmd/tlbtest) that run package workload's
// applications. It adds the instrument's hooks and erases nothing the
// configuration asked for: the oracle stays on if either asks for it,
// and the configuration's faults stand unless the instrument injects
// some.
func (in Instrument) App(c workload.AppConfig) workload.AppConfig {
	c.Tracer = in.Tracer
	c.Observe = in.Observe
	if in.injects() {
		c.Faults = in.Faults
	}
	c.Oracle = c.Oracle || in.Oracle
	c.Profiler = in.Profiler
	c.Flight = in.Flight
	c.ShootdownOptions = in.watchdog(c.ShootdownOptions)
	return c
}

// runWorld is the lifecycle of every world an experiment assembles from a
// raw kernel configuration: build it with the instrument applied, let rig
// spawn its threads, run it to completion, observe it exactly once and
// let harvest read it, whether or not the run failed, then close it. It
// returns the run's error, or the build's.
func (in Instrument) runWorld(c kernel.Config, rig func(*kernel.Kernel) error, harvest func(*kernel.Kernel)) error {
	c.Tracer = trace.Stream(in.Tracer, in.Flight, in.Profiler)
	c.Oracle = c.Oracle || in.Oracle
	if in.injects() {
		c.Machine.Faults = fault.New(*in.Faults)
	}
	c.Shootdown = in.watchdog(c.Shootdown)
	k, err := kernel.New(c)
	if err != nil {
		return err
	}
	if err := rig(k); err != nil {
		k.Close()
		return err
	}
	err = k.Run()
	if in.Observe != nil {
		in.Observe(k)
	}
	harvest(k)
	k.Close()
	return err
}

// watchdog arms the campaign watchdog when the instrument injects faults
// into a world that configured no watchdog of its own: without it, a
// single dropped IPI would hang the initiator until the virtual-time bound.
func (in Instrument) watchdog(o core.Options) core.Options {
	if in.injects() && o.WatchdogTimeout == 0 {
		o.WatchdogTimeout = campaignWatchdog.WatchdogTimeout
		o.WatchdogMaxRetries = campaignWatchdog.WatchdogMaxRetries
		o.WatchdogBackoffMax = campaignWatchdog.WatchdogBackoffMax
	}
	return o
}

// CLI is the shared command-line plumbing for the observability flags the
// binaries expose: -trace/-tracebuf (Chrome trace-event session timeline),
// -metrics (Prometheus-style snapshot of the last kernel run), and -profile
// (virtual-time profile directory). Both cmd/shootdownsim and cmd/tlbtest
// register it on their flag set, thread the Instrument it builds through
// their runs, and call Finish to write whatever outputs were requested.
type CLI struct {
	// Tool prefixes the stderr summaries ("shootdownsim", "tlbtest").
	Tool string

	// Flag values, bound by RegisterFlags.
	Trace    string
	TraceBuf int
	Metrics  string
	Profile  string
	Flight   string

	in          Instrument
	lastMetrics *trace.MetricSet
	kernelRuns  int
}

// RegisterFlags binds the shared observability flags on fs. traceBufDefault
// sets the -tracebuf default (the sweep-heavy shootdownsim wants a larger
// ring than the single-run tlbtest).
func (c *CLI) RegisterFlags(fs *flag.FlagSet, traceBufDefault int) {
	fs.StringVar(&c.Trace, "trace", "",
		"write a Chrome trace-event JSON file (load in chrome://tracing or Perfetto)")
	fs.IntVar(&c.TraceBuf, "tracebuf", traceBufDefault,
		"span-tracer ring capacity in events")
	fs.StringVar(&c.Metrics, "metrics", "",
		"write a Prometheus-style metrics snapshot of the last kernel run")
	fs.StringVar(&c.Profile, "profile", "",
		"write virtual-time profiles (folded stacks, phase timeline, contention, per-shootdown critical paths) into this directory")
	fs.StringVar(&c.Flight, "flight", "",
		"arm the flight recorder: dump black boxes (recent events + per-layer state) into this directory when a watchdog escalates, the oracle flags a divergence, or a run dies")
}

// flightRingSize is the -flight recorder's event-ring capacity: enough
// recent context for a post-mortem, bounded so an always-on recorder stays
// cheap. (With -trace the session tracer's ring is used instead.)
const flightRingSize = 1 << 16

// Instrument builds the hooks the parsed flags ask for and returns the
// instrument to thread through the run. The pointer aliases the CLI's own
// copy, so callers may set Faults/Oracle on it before use. Call after
// flag parsing, before any kernels are built.
func (c *CLI) Instrument() (*Instrument, error) {
	if c.Trace != "" {
		tr, err := trace.New(c.TraceBuf)
		if err != nil {
			return nil, fmt.Errorf("-tracebuf: %w", err)
		}
		c.in.Tracer = tr
	}
	if c.Profile != "" {
		c.in.Profiler = profile.New()
	}
	if c.Flight != "" {
		fr, err := trace.NewRecorder(flightRingSize)
		if err != nil {
			return nil, fmt.Errorf("-flight: %w", err)
		}
		fr.SetDir(c.Flight)
		c.in.Flight = fr
	}
	if c.Metrics != "" {
		c.in.Observe = func(k *kernel.Kernel) {
			c.lastMetrics = k.Metrics()
			c.kernelRuns++
		}
	}
	return &c.in, nil
}

// Finish writes the outputs the flags requested and prints a one-line
// stderr summary per artifact. It is a no-op for flags left unset.
func (c *CLI) Finish() error {
	if c.Trace != "" {
		if err := writeFileWith(c.Trace, c.in.Tracer.WriteChromeTrace); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		fmt.Fprintf(os.Stderr, "%s: wrote %d trace events to %s (%d dropped)\n",
			c.Tool, c.in.Tracer.Len(), c.Trace, c.in.Tracer.Dropped())
	}
	if c.Metrics != "" {
		if c.lastMetrics == nil {
			return fmt.Errorf("-metrics: no kernel runs observed")
		}
		c.lastMetrics.Counter("experiment_kernel_runs_total",
			"Kernels run by this invocation (metrics snapshot is from the last one).",
			float64(c.kernelRuns), nil)
		if err := writeFileWith(c.Metrics, func(w io.Writer) error {
			_, err := c.lastMetrics.WriteTo(w)
			return err
		}); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		fmt.Fprintf(os.Stderr, "%s: wrote metrics snapshot to %s\n", c.Tool, c.Metrics)
	}
	if c.Profile != "" {
		if err := profile.WriteDir(c.in.Profiler, c.Profile); err != nil {
			return fmt.Errorf("profile: %w", err)
		}
		fmt.Fprintf(os.Stderr,
			"%s: wrote virtual-time profile (folded.txt, timeline.csv, locks.txt, critical.txt, shootdowns.json) to %s\n",
			c.Tool, c.Profile)
	}
	if c.Flight != "" {
		fr := c.in.Flight
		fmt.Fprintf(os.Stderr, "%s: flight recorder tripped %d times, wrote %d black boxes to %s\n",
			c.Tool, len(fr.Trips()), fr.Dumped(), c.Flight)
	}
	return nil
}

// writeFileWith creates path and streams write into it, closing on error.
func writeFileWith(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
