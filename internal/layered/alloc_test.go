//go:build !race

// Allocation-regression guard for building Ĝ_p. The race runtime changes
// allocation behaviour, so this runs only in the plain test pass
// (`make alloc-check`); the race pass covers the same code for
// correctness.
package layered

import (
	"runtime"
	"testing"

	"distlap/internal/graph"
)

// TestNewAllocs pins New at a fixed number of allocations, whatever the
// graph's size: the layer edges and the adjacency are each one block, not
// a slice grown per edge or per node, and the cliques are not stored. One
// budget covers an 8×8 and a 16×16 grid at p = 4.
func TestNewAllocs(t *testing.T) {
	const budget = 6 // the Layered, the graph, one block of layer edges and clique pairs, degree offsets, half-edges and node slices
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

// TestNewManyLayersAllocs pins the bytes New allocates for E7's largest Ĝ_L, an 8×8
// grid at p = 61: the 6,832 layer edges, their half-edges, the node slices
// and the 1,830-entry clique pair table, about 0.5 MB. The budget fails a
// Ĝ_L that stores its 115,000 clique edges (7.1 MB).
func TestNewManyLayersAllocs(t *testing.T) {
	const budget = 1 << 20
	base := graph.Grid(8, 8)
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := New(base, 61); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > budget {
		t.Fatalf("New(Grid(8,8), 61) allocates %d bytes, budget %d", per, budget)
	}
}
