package main

// Example runs the program and holds its whole output, which is
// deterministic: a change that moves any printed number fails here.
func Example() {
	main()
	// Output:
	// ring network: n=400, diameter ~200
	//
	// universal   iterations=211  rounds=228583   rounds/iter=1083.3
	// hybrid      iterations=208  rounds=64832    rounds/iter=311.7
	//
	// HYBRID speedup: 3.5x — the NCC overlay replaces Θ(D)-round
	// global sums with O(log n)-round aggregations (Lemma 26, Theorem 3).
}
