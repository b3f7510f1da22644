package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// cpuModules are the simulator modules (internal/<module>) CPU time is
// rolled up into; cpu.runtime_sched, cpu.runtime_gc and cpu.other take
// the rest.
var cpuModules = []string{
	"sim", "kernel", "machine", "mem", "tlb", "ptable", "core", "pmap", "vm",
	"xpr", "oracle", "fault", "snap", "trace", "profile", "workload",
}

// Runtime functions that park, ready and switch goroutines — the engine's
// channel handoff, this simulator's waiting — and those of the collector.
// Allocation, whose names mention gc and scan, counts as other.
var (
	allocWords = []string{"malloc", "nextfree", "newobject", "growslice", "makeslice", "heapbits", "memclr"}
	schedWords = []string{"chan", "park", "ready", "schedule", "execute", "findrunnable", "gogo", "mcall",
		"gosched", "runq", "wakep", "casgstatus", "futex", "lock", "select", "goexit", "newproc", "sudog",
		"runtime.recv", "runtime.send", "stopm", "startm", "note", "netpoll", "yield", "usleep", "nanotime",
		"timer", "stealwork", "spinning", "acquirep", "releasep", "gfget", "gfput"}
	gcWords = []string{"gc", "scan", "mark", "sweep", "greyobject", "wbbuf", "barrier", "findobject",
		"typepointers", "scavenge"}
)

// moduleOf maps a profiled function name to its cpu.* bucket.
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "shootdown/internal/"); ok {
		mod := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			mod = rest[:i]
		}
		for _, m := range cpuModules {
			if m == mod {
				return m
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "runtime.") {
		lower := strings.ToLower(fn)
		for _, w := range allocWords {
			if strings.Contains(lower, w) {
				return "other"
			}
		}
		for _, w := range gcWords {
			if strings.Contains(lower, w) {
				return "runtime_gc"
			}
		}
		for _, w := range schedWords {
			if strings.Contains(lower, w) {
				return "runtime_sched"
			}
		}
	}
	return "other"
}

// cpuRollup sums each function's flat share of a CPU profile, as
// `go tool pprof -top` prints it, into cpu.<module>_pct.
func cpuRollup(ctx context.Context, profile string) (map[string]float64, error) {
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-top", "-nodecount=1000000", profile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	top, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	return parseTop(top), nil
}

// parseTop reads pprof's -top table: flat, flat%, sum%, cum, cum%, name.
func parseTop(top []byte) map[string]float64 {
	out := map[string]float64{}
	for _, m := range cpuModules {
		out["cpu."+m+"_pct"] = 0
	}
	for _, m := range []string{"runtime_sched", "runtime_gc", "other"} {
		out["cpu."+m+"_pct"] = 0
	}
	sc := bufio.NewScanner(bytes.NewReader(top))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			continue
		}
		out["cpu."+moduleOf(strings.Join(f[5:], " "))+"_pct"] += pct
	}
	return out
}
