//go:build !race

// Allocation-regression guard for the layered solver. The race runtime
// changes allocation behaviour, so this runs only in the plain test pass
// (`make alloc-check`); the race pass covers the same code for
// correctness.
package partwise

import (
	"runtime"
	"testing"

	"distlap/internal/congest"
	"distlap/internal/graph"
)

// TestLayeredSolveAllocs pins the bytes one LayeredSolver.Solve allocates
// on E7's largest instance, 8-congested on a 64-node expander: about
// 2.9 MB with Ĝ_L's cliques implicit and each batch's Lemma 16 network
// sized by Ĝ_L's layer edges and its trees' links (7.3 MB while the
// network's loads and send store spanned every clique edge). The budget
// fails a solve whose Ĝ_L stores its clique edges (16.1 MB).
func TestLayeredSolveAllocs(t *testing.T) {
	const budget = 11 << 20
	g := graph.RandomRegular(64, 4, 9)
	inst := RandomCongestedInstance(g, 8, 4, 13)
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		nw := congest.NewNetwork(g, congest.Options{Supported: true, Seed: 3})
		if _, err := (LayeredSolver{Seed: 3}).Solve(nw, inst, Min); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > budget {
		t.Fatalf("LayeredSolver.Solve on E7's largest instance allocates %d bytes, budget %d", per, budget)
	}
}
