package main

// Example runs the program and holds its whole output, which is
// deterministic: a change that moves any printed number fails here.
func Example() {
	main()
	// Output:
	// network: 144 nodes, 264 weighted edges
	// distributed MST: weight 4080, 143 edges
	// Borůvka phases:  4
	// CONGEST rounds:  188
	// matches the sequential Kruskal reference ✓
}
