package main

// Example runs both tester worlds and checks their output: the counters
// keep moving after vm_protect without a consistency mechanism and stop
// with the Mach shootdown.
func Example() {
	main()
	// Output:
	// === run 1: no consistency mechanism (the problem) ===
	// counters when vm_protect returned: [414 407 405 412 410]
	// counters after all writers died:   [743 736 733 740 738]
	// -> INCONSISTENT: writes kept landing on a read-only page through stale TLB entries
	//
	// === run 2: Mach shootdown algorithm (the fix) ===
	// counters when vm_protect returned: [449 435 425 455 423]
	// counters after all writers died:   [449 435 425 455 423]
	// -> consistent: not a single write completed after the reprotect
	// the fix cost one shootdown: 5 processors shot at, 668 µs at the initiator
}
