package distlap_test

// Scale integration tests: larger instances than the unit suites, skipped
// under -short. They pin down that the measured scaling shapes survive at
// thousands of nodes, not just the experiment-table sizes.

import (
	"testing"

	"distlap"
	"distlap/internal/congest"
	"distlap/internal/graph"
	"distlap/internal/linalg"
	"distlap/internal/ncc"
	"distlap/internal/partwise"
)

func TestScaleSolverGrid1600(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	g := graph.Grid(40, 40)
	b := linalg.RandomBVector(g.N(), 11)
	res, err := distlap.NewSolver(distlap.WithEps(1e-6)).Solve(g, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Residual > 1e-6 {
		t.Fatalf("residual %g", res.Residual)
	}
	// Round sanity: far below the trivial n*iterations bound.
	if res.Rounds > res.Iterations*g.N() {
		t.Fatalf("rounds %d implausible", res.Rounds)
	}
}

func TestScaleCongestedPWA(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	g := graph.Grid(20, 20)
	inst := partwise.RandomCongestedInstance(g, 4, 8, 3)
	nw := congest.NewNetwork(g, congest.Options{Supported: true, Seed: 1})
	out, err := partwise.LayeredSolver{Seed: 3}.Solve(nw, inst, partwise.Min)
	if err != nil {
		t.Fatal(err)
	}
	want := inst.Expected(partwise.Min)
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("part %d wrong", i)
		}
	}
}

func TestScaleNCCAggregation(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	g := graph.Grid(64, 64) // n = 4096
	inst := partwise.RandomCongestedInstance(g, 8, 16, 5)
	nw := ncc.NewNetwork(g.N(), nil, nil)
	out, err := nw.Aggregate(inst, partwise.Sum)
	if err != nil {
		t.Fatal(err)
	}
	want := inst.Expected(partwise.Sum)
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("part %d wrong", i)
		}
	}
	// Lemma 26 at scale: p + log n = 8 + 12 = 20; allow constant slack.
	if nw.Rounds() > 4*20 {
		t.Fatalf("NCC rounds %d too large for p=8, n=4096", nw.Rounds())
	}
}

func TestScaleHybridRing(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	n := 1024
	g := graph.Cycle(n)
	b := linalg.RandomBVector(n, 2)
	// Chebyshev in HYBRID: the cheapest configuration for a huge-diameter
	// ring; just verify it converges and HYBRID stays far below D per
	// aggregation.
	res, err := distlap.NewSolver(distlap.WithMode(distlap.ModeHybrid), distlap.WithEps(1e-4),
		distlap.WithChebyshev(0, 0)).Solve(g, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Residual > 1e-4 {
		t.Fatalf("residual %g", res.Residual)
	}
}
