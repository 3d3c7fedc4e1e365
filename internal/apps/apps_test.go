package apps

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"distlap/internal/congest"
	"distlap/internal/core"
	"distlap/internal/graph"
	"distlap/internal/partwise"
)

func newNet(g *graph.Graph) *congest.Network {
	return congest.NewNetwork(g, congest.Options{Seed: 1, Supported: true})
}

// edgeGraph returns the graph on n nodes whose edges are the given
// {u, v, weight} triples, in order.
func edgeGraph(t testing.TB, n int, triples [][3]int64) *graph.Graph {
	t.Helper()
	edges := make([]graph.Edge, len(triples))
	for i, e := range triples {
		edges[i] = graph.Edge{U: int(e[0]), V: int(e[1]), Weight: e[2]}
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestMSTMatchesKruskal(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Grid(4, 5),
		graph.RandomConnected(40, 40, 20, 3),
		graph.Cycle(9),
		graph.Caterpillar(6, 2),
	}
	for _, g := range graphs {
		_, wantW := graph.MST(g)
		for _, solver := range []partwise.Solver{
			partwise.NaiveGlobalSolver{},
			new(partwise.ShortcutSolver),
		} {
			nw := newNet(g)
			res, err := MST(nw, solver)
			if err != nil {
				t.Fatalf("%s: %v", solver.Name(), err)
			}
			if res.Weight != wantW {
				t.Fatalf("%s: weight=%d, want %d", solver.Name(), res.Weight, wantW)
			}
			if len(res.Edges) != g.N()-1 {
				t.Fatalf("%s: %d edges for n=%d", solver.Name(), len(res.Edges), g.N())
			}
			if res.Phases > 2*log2(g.N())+1 {
				t.Fatalf("%s: %d Borůvka phases", solver.Name(), res.Phases)
			}
			if res.Rounds <= 0 {
				t.Fatal("no rounds charged")
			}
		}
	}
}

func TestMSTDisconnected(t *testing.T) {
	nw := newNet(edgeGraph(t, 4, [][3]int64{{0, 1, 1}, {2, 3, 1}}))
	if _, err := MST(nw, partwise.NaiveGlobalSolver{}); err == nil {
		t.Fatal("want disconnected error")
	}
}

func TestMSTEmptyAndSingle(t *testing.T) {
	nwEmpty := newNet(edgeGraph(t, 0, nil))
	if res, err := MST(nwEmpty, partwise.NaiveGlobalSolver{}); err != nil || len(res.Edges) != 0 {
		t.Fatalf("empty: %v %v", res, err)
	}
	nw1 := newNet(edgeGraph(t, 1, nil))
	res, err := MST(nw1, partwise.NaiveGlobalSolver{})
	if err != nil || len(res.Edges) != 0 {
		t.Fatalf("single: %v %v", res, err)
	}
}

func TestEncodeDecodeEdge(t *testing.T) {
	for _, w := range []int64{1, 5, 1000000} {
		for _, id := range []graph.EdgeID{0, 7, 1 << 20} {
			if got := decodeEdge(encodeEdge(w, id)); got != id {
				t.Fatalf("roundtrip (%d,%d) -> %d", w, id, got)
			}
		}
	}
	if encodeEdge(2, 0) <= encodeEdge(1, 1<<30) {
		t.Fatal("weight must dominate ordering")
	}
}

func TestSpanningViaPWA(t *testing.T) {
	g := graph.Grid(4, 4)
	full, _ := graph.MST(g)
	nw := newNet(g)
	res, err := SpanningConnectedViaPWA(nw, full, new(partwise.ShortcutSolver))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Connected {
		t.Fatal("spanning tree should be connected")
	}
	// Drop one tree edge: disconnected.
	nw2 := newNet(g)
	res2, err := SpanningConnectedViaPWA(nw2, full[1:], new(partwise.ShortcutSolver))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Connected {
		t.Fatal("tree minus an edge should be disconnected")
	}
}

func TestSpanningViaLaplacianTheorem1(t *testing.T) {
	g := graph.Grid(4, 4)
	mst, _ := graph.MST(g)

	res, err := SpanningConnectedViaLaplacian(g, mst, core.ModeUniversal, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Connected {
		t.Fatal("connected subgraph misclassified")
	}
	if res.Rounds <= 0 {
		t.Fatal("no rounds charged")
	}

	// Disconnect by removing an edge whose endpoints keep positive degree:
	// remove a middle tree edge; if some node isolates, that is the local
	// short-circuit path, which is also correct — pick robustly.
	for drop := range mst {
		edges := append(append([]graph.EdgeID{}, mst[:drop]...), mst[drop+1:]...)
		res2, err := SpanningConnectedViaLaplacian(g, edges, core.ModeUniversal, 1)
		if err != nil {
			t.Fatal(err)
		}
		if res2.Connected {
			t.Fatalf("dropping edge %d: still classified connected", drop)
		}
	}
}

func TestSpanningViaLaplacianAgreesWithPWA(t *testing.T) {
	f := func(seed int64, drop uint8) bool {
		g := graph.RandomConnected(14, 8, 1, seed)
		mst, _ := graph.MST(g)
		edges := mst
		if int(drop)%2 == 1 && len(mst) > 1 {
			d := int(drop) % len(mst)
			edges = append(append([]graph.EdgeID{}, mst[:d]...), mst[d+1:]...)
		}
		nw := newNet(g)
		a, err := SpanningConnectedViaPWA(nw, edges, new(partwise.ShortcutSolver))
		if err != nil {
			return false
		}
		b, err := SpanningConnectedViaLaplacian(g, edges, core.ModeUniversal, seed)
		if err != nil {
			return false
		}
		return a.Connected == b.Connected
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// oneShotFlow is Flow through a one-shot solve under cfg, the way the
// facade's Solver.Flow runs it.
func oneShotFlow(g *graph.Graph, s, t graph.NodeID, cfg core.PrepareConfig) (*FlowResult, error) {
	return Flow(g, s, t, func(b []float64) (*core.Result, error) { return core.SolveOnce(g, b, cfg) })
}

// resistance is the s-t effective resistance of oneShotFlow.
func resistance(g *graph.Graph, s, t graph.NodeID, cfg core.PrepareConfig) (float64, error) {
	res, err := oneShotFlow(g, s, t, cfg)
	if err != nil {
		return 0, err
	}
	return res.Resistance, nil
}

func TestElectricalFlowPath(t *testing.T) {
	// On a unit path of length 3, R_eff(0, 3) = 3 and the unit current
	// crosses every edge.
	g := graph.Path(4)
	res, err := oneShotFlow(g, 0, 3, core.PrepareConfig{Mode: core.ModeUniversal, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Resistance-3) > 1e-5 {
		t.Fatalf("R_eff=%v, want 3", res.Resistance)
	}
	for id, c := range res.EdgeCurrent {
		if math.Abs(math.Abs(c)-1) > 1e-5 {
			t.Fatalf("edge %d current %v, want ±1", id, c)
		}
	}
	// Net current out of each node must be χ_s − χ_t.
	div := make([]float64, g.N())
	for id, e := range g.EdgeList() {
		div[e.U] += res.EdgeCurrent[id]
		div[e.V] -= res.EdgeCurrent[id]
	}
	if math.Abs(div[0]-1) > 1e-5 || math.Abs(div[3]+1) > 1e-5 || math.Abs(div[1]) > 1e-5 {
		t.Fatalf("divergence=%v", div)
	}
}

func TestElectricalParallelEdgesResistance(t *testing.T) {
	// Two parallel unit edges: R_eff = 1/2.
	g := edgeGraph(t, 2, [][3]int64{{0, 1, 1}, {0, 1, 1}})
	r, err := resistance(g, 0, 1, core.PrepareConfig{Mode: core.ModeUniversal, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-0.5) > 1e-5 {
		t.Fatalf("R_eff=%v, want 0.5", r)
	}
}

func TestElectricalBadArgs(t *testing.T) {
	g := graph.Path(3)
	solve := func(b []float64) (*core.Result, error) {
		t.Fatal("solved for a bad terminal pair")
		return nil, nil
	}
	if _, err := Flow(g, 0, 0, solve); err == nil {
		t.Fatal("want s==t error")
	}
	if _, err := Flow(g, 0, 9, solve); !errors.Is(err, graph.ErrNodeRange) {
		t.Fatalf("got %v, want a range error", err)
	}
}

// Property: effective resistance on random graphs is symmetric and obeys
// the triangle inequality R(s,t) <= R(s,m) + R(m,t).
func TestEffectiveResistanceMetricProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.RandomConnected(12, 8, 2, seed)
		cfg := core.PrepareConfig{Mode: core.ModeUniversal, Seed: seed, Tol: 1e-10}
		rst, err := resistance(g, 0, 5, cfg)
		if err != nil {
			return false
		}
		rts, err := resistance(g, 5, 0, cfg)
		if err != nil {
			return false
		}
		rsm, err := resistance(g, 0, 3, cfg)
		if err != nil {
			return false
		}
		rmt, err := resistance(g, 3, 5, cfg)
		if err != nil {
			return false
		}
		return math.Abs(rst-rts) < 1e-6 && rst <= rsm+rmt+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
