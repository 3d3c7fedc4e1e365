package main

// Example runs the program and holds its whole output, which is
// deterministic: a change that moves any printed number fails here.
func Example() {
	main()
	// Output:
	// grid 256 nodes, 480 edges
	// iterations:       127
	// CONGEST rounds:   25664 (measured on the simulator)
	// residual:         8.94e-09
	// L-norm error:     3.69e-09 (vs exact solution)
	// corner potential: +1.8043 (opposite corner -1.8043)
	//
	// where the rounds went (exclusive per phase):
	//   solve/matvec                    127 rounds    121920 messages
	//   solve/norms                     120 rounds      1020 messages
	//   solve/precond/center           3271 rounds    122880 messages
	//   solve/precond/restrict         3271 rounds    122880 messages
	//   solve/precond/sweep            3267 rounds    122880 messages
	//   solve/reduce                  15608 rounds    194820 messages
}
