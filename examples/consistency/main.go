// Consistency: the paper's §5.1 tester run twice — once without any
// consistency mechanism (stale TLB entries let writes through a read-only
// protection) and once with the Mach shootdown (no write completes after
// vm_protect returns). This is the simulated equivalent of running the
// paper's test program on broken and fixed kernels.
package main

import (
	"fmt"
	"log"

	"shootdown/internal/baseline"
	"shootdown/internal/core"
	"shootdown/internal/machine"
	"shootdown/internal/workload"
)

func main() {
	const children = 5

	fmt.Println("=== run 1: no consistency mechanism (the problem) ===")
	broken, err := workload.RunTester(workload.TesterConfig{
		Children: children,
		App: workload.AppConfig{
			NCPUs: 8, Seed: 1,
			Strategy: func(*machine.Machine) (core.Strategy, error) {
				return baseline.NewNone(), nil
			},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	report(broken)

	fmt.Println("\n=== run 2: Mach shootdown algorithm (the fix) ===")
	fixed, err := workload.RunTester(workload.TesterConfig{
		Children: children, App: workload.AppConfig{NCPUs: 8, Seed: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	report(fixed)
	if fixed.UserEvents == 1 {
		fmt.Printf("the fix cost one shootdown: %d processors shot at, %.0f µs at the initiator\n",
			fixed.ProcsShot, fixed.ShootUS)
	}

	if !broken.Inconsistent || fixed.Inconsistent {
		log.Fatal("unexpected outcome: the demo should fail without the shootdown and pass with it")
	}
}

func report(r workload.TesterResult) {
	fmt.Printf("counters when vm_protect returned: %v\n", r.Saved)
	fmt.Printf("counters after all writers died:   %v\n", r.Final)
	if r.Inconsistent {
		fmt.Println("-> INCONSISTENT: writes kept landing on a read-only page through stale TLB entries")
	} else {
		fmt.Println("-> consistent: not a single write completed after the reprotect")
	}
}
