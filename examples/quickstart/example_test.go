package main

// Example runs the quickstart and checks its output, which is
// deterministic: one shootdown of the writer's TLB entry, at fixed
// virtual times.
func Example() {
	main()
	// Output:
	// [   2.134 ms] main: reprotecting the page read-only (this shoots down the writer's TLB entry)
	// [   2.614 ms] main: vm_protect returned — no stale entry can be used from here on
	// [   2.796 ms] writer: write fault after 150 stores — TLB entry was shot down
	// [   2.935 ms] main: final counter value 149 (reads still work)
	//
	// shootdown statistics: 1 invoked, 1 IPIs sent, 1 responder passes, 2 entries invalidated
	// initiator events: 0 kernel-pmap, 1 user-pmap (last user shootdown took 468 µs)
}
