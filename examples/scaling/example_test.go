package main

// Example runs the quick Figure 2 sweep and the 64-processor world and
// checks their output, every number of which is fixed by the seeds.
func Example() {
	main()
	// Output:
	// sweeping shootdowns of 1..15 processors (3 runs each)...
	//  1 processors   459 µs #############
	//  2 processors   511 µs ###############
	//  3 processors   565 µs #################
	//  4 processors   606 µs ##################
	//  5 processors   678 µs ####################
	//  6 processors   719 µs #####################
	//  7 processors   778 µs #######################
	//  8 processors   837 µs #########################
	//  9 processors   890 µs ##########################
	// 10 processors   953 µs ############################
	// 11 processors  1004 µs ##############################
	// 12 processors  1084 µs ################################
	// 13 processors  1147 µs ##################################
	// 14 processors  1216 µs ####################################
	// 15 processors  1321 µs ########################################
	//
	// trend line (1..12): 394 + 55.9*n µs   (paper: 430 + 55*n)
	// extrapolated cost at 100 processors: 6.0 ms   (paper's warning: ~6 ms)
	//
	// measuring an actual 64-processor simulated machine (63 processors shot at)...
	// measured: 7113 µs; linear trend predicts 3915 µs (1.82x — the shared bus congests,
	// which is why §8 proposes restructuring kernels into processor pools on NUMA machines)
}
