//go:build !race

// Allocation-regression guards for the induced-subgraph kernel. The race
// runtime changes allocation behaviour, so these run only in the plain
// test pass (`make alloc-check`); the race pass covers the same code for
// correctness.
package graph

import "testing"

// TestInducedSweepAllocs pins a sweep on a built kernel at zero
// allocations: depth, parent and visit-order buffers are all reused.
func TestInducedSweepAllocs(t *testing.T) {
	g := Grid(32, 32)
	var part []NodeID
	for r := 4; r < 20; r++ {
		for c := 4; c < 20; c++ {
			part = append(part, GridID(32, r, c))
		}
	}
	var sub Induced
	k := sub.Build(g, part)
	root := 0
	sweep := func() {
		_, _, root = sub.Sweep(root)
		root = (root + 1) % k
	}
	if a := testing.AllocsPerRun(100, sweep); a > 0 {
		t.Fatalf("Sweep allocates %.1f per call, want 0", a)
	}
}

// TestInducedRebuildAllocs pins a rebuild of a reused kernel at zero
// allocations when the part has no more nodes and edges than an earlier
// one: the host-to-local index and every part-sized buffer are reused.
func TestInducedRebuildAllocs(t *testing.T) {
	g := Grid(32, 32)
	block := func(r0, c0, side int) []NodeID {
		var part []NodeID
		for r := r0; r < r0+side; r++ {
			for c := c0; c < c0+side; c++ {
				part = append(part, GridID(32, r, c))
			}
		}
		return part
	}
	big, small := block(0, 0, 16), block(10, 12, 9)
	var sub Induced
	sub.Build(g, big)
	i := 0
	rebuild := func() {
		if i++; i%2 == 0 {
			sub.Build(g, big)
		} else {
			sub.Build(g, small)
		}
		sub.Sweep(0)
	}
	if a := testing.AllocsPerRun(100, rebuild); a > 0 {
		t.Fatalf("rebuild allocates %.1f per call, want 0", a)
	}
}

// TestBFSAllocs pins a search at five allocations: the result and its four
// node-sized arrays. The visit order doubles as the FIFO queue, so no
// queue grows beside it.
func TestBFSAllocs(t *testing.T) {
	g := Grid(20, 20)
	if a := testing.AllocsPerRun(20, func() { BFS(g, 0) }); a > 5 {
		t.Fatalf("BFS on grid-400 allocates %.1f per call, want at most 5", a)
	}
}

// TestCenterTreeAllocs pins the center and its BFS tree at eight
// allocations on grid-400: the three searches share one result's four
// node-sized arrays, and the tree takes four more.
func TestCenterTreeAllocs(t *testing.T) {
	g := Grid(20, 20)
	if a := testing.AllocsPerRun(20, func() { CenterTree(g) }); a > 8 {
		t.Fatalf("CenterTree on grid-400 allocates %.1f per call, want at most 8", a)
	}
}

// TestGridAllocs pins a generator family at a fixed number of allocations:
// Grid collects its edges in one list and builds the graph in one block
// (the graph, degree offsets, half-edges and node slices).
func TestGridAllocs(t *testing.T) {
	if a := testing.AllocsPerRun(20, func() { Grid(20, 20) }); a > 5 {
		t.Fatalf("Grid(20,20) allocates %.1f, want at most 5", a)
	}
}
