package main

// Example runs the four applications at seed 42 and checks the summary
// table, every number of which is fixed by the seed.
func Example() {
	main()
	// Output:
	// running Mach build  (throughput-only parallelism; kernel buffer churn)...
	// running Parthenon   (workpile theorem prover; lazy evaluation kills its shootdowns)...
	// running Agora       (write-once shared memory; big shootdowns only during setup)...
	// running Camelot     (copy-on-write transactions; the only source of user shootdowns)...
	//
	// application  runtime  kernel shootdowns  mean µs  user shootdowns  mean µs  responder mean µs
	// Mach build   6.9s     94                 1621     0                0        790
	// Parthenon    1.5s     3                  1307     0                0        546
	// Agora        1.1s     34                 801      0                0        485
	// Camelot      8.8s     54                 691      65               632      70
	//
	// (compare: paper's Table 2 kernel events 7494/4/88/68 over 20/20/7.5/60 minutes;
	//  the simulation compresses runtimes but preserves the per-application shape)
}
