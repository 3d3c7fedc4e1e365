package distlap_test

import (
	"math"
	"testing"

	"distlap"
)

// newGraph returns the graph on n nodes whose edges are the given
// {u, v, weight} triples, in order.
func newGraph(t *testing.T, n int, triples [][3]int64) *distlap.Graph {
	t.Helper()
	edges := make([]distlap.Edge, len(triples))
	for i, e := range triples {
		edges[i] = distlap.Edge{U: int(e[0]), V: int(e[1]), Weight: e[2]}
	}
	g, err := distlap.NewGraph(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFacadeSolveRoundtrip(t *testing.T) {
	var g *distlap.Graph
	for _, f := range distlap.Families() {
		if f.Name == "grid" {
			g = f.Make(64)
		}
	}
	if g == nil {
		t.Fatal("grid family missing")
	}
	b := make([]float64, g.N())
	b[0], b[g.N()-1] = 1, -1
	res, err := distlap.NewSolver(distlap.WithEps(1e-8), distlap.WithSeed(1)).Solve(g, b)
	if err != nil {
		t.Fatal(err)
	}
	xStar, err := distlap.ExactSolve(g, b)
	if err != nil {
		t.Fatal(err)
	}
	if e := distlap.RelativeLError(g, res.X, xStar); e > 1e-5 {
		t.Fatalf("L-error %g", e)
	}
	if res.Rounds <= 0 {
		t.Fatal("no rounds measured")
	}
}

func TestFacadeModesAgree(t *testing.T) {
	g := newGraph(t, 3, [][3]int64{{0, 1, 2}, {1, 2, 1}})
	b := []float64{1, 0, -1}
	var solutions [][]float64
	for _, mode := range []distlap.Mode{
		distlap.ModeUniversal, distlap.ModeCongest, distlap.ModeBaseline, distlap.ModeHybrid,
	} {
		res, err := distlap.NewSolver(distlap.WithMode(mode), distlap.WithEps(1e-10)).Solve(g, b)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		solutions = append(solutions, res.X)
	}
	for i := 1; i < len(solutions); i++ {
		for j := range solutions[0] {
			if math.Abs(solutions[i][j]-solutions[0][j]) > 1e-6 {
				t.Fatalf("mode %d disagrees at %d", i, j)
			}
		}
	}
}

func TestFacadeAggregateParts(t *testing.T) {
	g := newGraph(t, 4, [][3]int64{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}})
	inst := &distlap.PartwiseInstance{
		Parts:  [][]int{{0, 1, 2}, {1, 2, 3}},
		Values: [][]int64{{5, 2, 9}, {1, 7, 3}},
	}
	res, err := distlap.NewSolver().AggregateParts(g, inst, distlap.AggMin)
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[0] != 2 || res.Values[1] != 1 {
		t.Fatalf("out=%v", res.Values)
	}
	if res.Metrics.Congest.Rounds <= 0 {
		t.Fatal("no rounds charged for a congested instance")
	}
}

func TestFacadeShortcutQuality(t *testing.T) {
	var g *distlap.Graph
	for _, f := range distlap.Families() {
		if f.Name == "expander" {
			g = f.Make(64)
		}
	}
	est, err := distlap.EstimateShortcutQuality(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if est.Lower > est.Upper || est.Upper <= 0 {
		t.Fatalf("bracket [%d, %d]", est.Lower, est.Upper)
	}
}

func TestFacadeMST(t *testing.T) {
	g := newGraph(t, 4, [][3]int64{{0, 1, 1}, {1, 2, 2}, {2, 3, 3}, {0, 3, 10}})
	res, err := distlap.NewSolver().MinimumSpanningTree(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Weight != 6 || len(res.Edges) != 3 {
		t.Fatalf("mst weight=%d edges=%d", res.Weight, len(res.Edges))
	}
}

func TestFacadeFlowAndResistance(t *testing.T) {
	g := newGraph(t, 3, [][3]int64{{0, 1, 1}, {1, 2, 1}})
	flow, err := distlap.NewSolver().Flow(g, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(flow.Resistance-2) > 1e-5 {
		t.Fatalf("R_eff=%v, want 2", flow.Resistance)
	}
	if len(flow.EdgeCurrent) != 2 {
		t.Fatal("missing currents")
	}
}

func TestFacadeSolveSDD(t *testing.T) {
	g := newGraph(t, 3, [][3]int64{{0, 1, 1}, {1, 2, 1}})
	res, err := distlap.NewSolver(distlap.WithEps(1e-9)).SolveSDD(g, []int64{1, 0, 1}, []float64{1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Symmetric system: x0 == x2.
	if math.Abs(res.X[0]-res.X[2]) > 1e-6 {
		t.Fatalf("x=%v", res.X)
	}
}

func TestFacadeMaxFlow(t *testing.T) {
	g := newGraph(t, 4, [][3]int64{{0, 1, 2}, {1, 3, 2}, {0, 2, 3}, {2, 3, 3}})
	res, err := distlap.NewSolver().MaxFlow(g, 0, 3, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 5 || res.ExactValue != 5 {
		t.Fatalf("flow=%d exact=%d", res.Value, res.ExactValue)
	}
}

func TestFacadeSpectralPartition(t *testing.T) {
	// Two triangles joined by one edge: the sign cut is that bridge.
	g := newGraph(t, 6, [][3]int64{{0, 1, 1}, {1, 2, 1}, {0, 2, 1}, {3, 4, 1}, {4, 5, 1}, {3, 5, 1}, {2, 3, 1}})
	res, err := distlap.NewSolver().SpectralPartition(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.CutWeight != 1 || len(res.SideA) != 3 || res.Rounds <= 0 {
		t.Fatalf("cut weight %d, side %v, rounds %d; want the bridge between the triangles",
			res.CutWeight, res.SideA, res.Rounds)
	}
}
