//go:build !race

// Allocation-regression guard for building Ĝ_p. The race runtime changes
// allocation behaviour, so this runs only in the plain test pass
// (`make alloc-check`); the race pass covers the same code for
// correctness.
package layered

import (
	"testing"

	"distlap/internal/graph"
)

// TestNewAllocs pins New at a fixed number of allocations, whatever the
// graph's size: the edge list and the adjacency are each one block, not a
// slice grown per edge or per node. One budget covers an 8×8 and a 16×16
// grid at p = 4.
func TestNewAllocs(t *testing.T) {
	const budget = 6 // the Layered, its edge list, and FromEdges' graph, degree offsets, half-edges and node slices
	for _, side := range []int{8, 16} {
		base := graph.Grid(side, side)
		build := func() {
			if _, err := New(base, 4); err != nil {
				t.Fatal(err)
			}
		}
		if a := testing.AllocsPerRun(10, build); a > budget {
			t.Fatalf("Grid(%d,%d), p=4: New allocates %.1f, budget %d", side, side, a, budget)
		}
	}
}
