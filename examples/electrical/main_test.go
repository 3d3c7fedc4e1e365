package main

// Example runs the program and holds its whole output, which is
// deterministic: a change that moves any printed number fails here.
func Example() {
	main()
	// Output:
	// road network: 128 intersections, 223 segments
	//
	// west-end → east-end
	//   effective resistance: 1.0780
	//   CONGEST rounds:       8901 (72 iterations)
	//   busiest segment:      0-16 carrying 0.60 of the unit flow
	//
	// west-end → midtown
	//   effective resistance: 1.2770
	//   CONGEST rounds:       8901 (72 iterations)
	//   busiest segment:      0-16 carrying 0.65 of the unit flow
	//
	// midtown → east-end
	//   effective resistance: 1.2726
	//   CONGEST rounds:       8780 (71 iterations)
	//   busiest segment:      16-31 carrying 0.65 of the unit flow
}
