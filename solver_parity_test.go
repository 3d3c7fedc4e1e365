package distlap_test

// Parity tests for the Solver facade: an operation with both a one-shot
// Solver method and a prepared Instance method must produce bit-identical
// results through the two when the request seed is pinned to the Solver's
// seed — solutions, iteration counts, residuals and measured rounds. A
// divergence would mean one entry point quietly runs a different algorithm
// than the other. instance_test.go pins Solve, Flow and MST in the default
// configuration.

import (
	"context"
	"slices"
	"testing"

	"distlap"
	"distlap/internal/linalg"
	"distlap/internal/partwise"
)

func modes() []distlap.Mode {
	return []distlap.Mode{
		distlap.ModeUniversal,
		distlap.ModeCongest,
		distlap.ModeBaseline,
		distlap.ModeHybrid,
	}
}

func parityGraph() (*distlap.Graph, []float64) {
	for _, f := range distlap.Families() {
		if f.Name == "grid" {
			g := f.Make(42)
			return g, linalg.RandomBVector(g.N(), 9)
		}
	}
	panic("no grid family")
}

func sameResult(t *testing.T, label string, a, b *distlap.Result) {
	t.Helper()
	if a.Iterations != b.Iterations || a.Rounds != b.Rounds {
		t.Errorf("%s: iterations/rounds diverge: (%d,%d) vs (%d,%d)",
			label, a.Iterations, a.Rounds, b.Iterations, b.Rounds)
	}
	if a.Residual != b.Residual {
		t.Errorf("%s: residuals diverge: %v vs %v", label, a.Residual, b.Residual)
	}
	if len(a.X) != len(b.X) {
		t.Fatalf("%s: solution lengths diverge", label)
	}
	for i := range a.X {
		if a.X[i] != b.X[i] {
			t.Errorf("%s: X[%d] diverges: %v vs %v", label, i, a.X[i], b.X[i])
			return
		}
	}
}

// TestSolverParityAggregateParts pins Solver.AggregateParts against
// Instance.AggregateParts with the request seed pinned (values and rounds).
func TestSolverParityAggregateParts(t *testing.T) {
	g, _ := parityGraph()
	inst := partwise.RandomCongestedInstance(g, 3, 4, 11)
	sv := distlap.NewSolver(distlap.WithSeed(5))
	want, err := sv.AggregateParts(g, inst, distlap.AggMax)
	if err != nil {
		t.Fatalf("Solver.AggregateParts: %v", err)
	}
	prep, err := sv.Prepare(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := prep.AggregateParts(context.Background(), inst, distlap.AggMax, distlap.WithRequestSeed(5))
	if err != nil {
		t.Fatalf("Instance.AggregateParts: %v", err)
	}
	if !slices.Equal(got.Values, want.Values) {
		t.Errorf("values diverge: %v vs %v", got.Values, want.Values)
	}
	if got.Metrics.Congest != want.Metrics.Congest {
		t.Errorf("engine metrics diverge: %+v vs %+v", got.Metrics.Congest, want.Metrics.Congest)
	}
	if want.Metrics.Congest.Rounds <= 0 {
		t.Errorf("aggregation charged no rounds")
	}
}

// TestSolverFlowMatchesInstanceFlow pins Solver.Flow under WithChebyshev
// against Instance.Flow pinned to the Solver's seed: both run the Solver's
// configuration, Chebyshev iteration included, so iterations, rounds and
// potentials agree bit for bit.
func TestSolverFlowMatchesInstanceFlow(t *testing.T) {
	g, _ := parityGraph()
	sv := distlap.NewSolver(distlap.WithEps(1e-6), distlap.WithSeed(4), distlap.WithChebyshev(0, 0))
	want, err := sv.Flow(g, 0, g.N()-1)
	if err != nil {
		t.Fatalf("Solver.Flow: %v", err)
	}
	inst, err := sv.Prepare(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := inst.Flow(context.Background(), 0, g.N()-1, distlap.WithRequestSeed(4))
	if err != nil {
		t.Fatalf("Instance.Flow: %v", err)
	}
	if got.Iterations != want.Iterations || got.Rounds != want.Rounds {
		t.Errorf("iterations/rounds diverge: (%d,%d) vs (%d,%d)",
			got.Iterations, got.Rounds, want.Iterations, want.Rounds)
	}
	if !slices.Equal(got.Potentials, want.Potentials) {
		t.Errorf("potentials diverge")
	}
}
