package main

// Example runs the program and holds its whole output, which is
// deterministic: a change that moves any printed number fails here.
func Example() {
	main()
	// Output:
	// alpha=1   rounds=5154   iters=63   mass near sources: 92.0%
	// alpha=4   rounds=4835   iters=59   mass near sources: 99.1%
	// alpha=16  rounds=5717   iters=70   mass near sources: 100.0%
	//
	// larger alpha → faster leak to ground → the response concentrates
	// around each source (the regularization length-scale shrinks).
}
