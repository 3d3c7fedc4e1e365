package apps

import (
	"testing"
	"testing/quick"

	"distlap/internal/core"
	"distlap/internal/graph"
)

func TestApproxMaxFlowMatchesExactSmall(t *testing.T) {
	parallel := edgeGraph(t, 4, [][3]int64{{0, 1, 2}, {1, 3, 2}, {0, 2, 3}, {2, 3, 3}})
	cases := []struct {
		name string
		g    *graph.Graph
		s, t graph.NodeID
	}{
		{name: "path", g: graph.Path(5), s: 0, t: 4},
		{name: "grid", g: graph.Grid(3, 5), s: 0, t: 14},
		{name: "parallel", g: parallel, s: 0, t: 3},
		{name: "barbell", g: graph.Barbell(4, 1), s: 0, t: 8},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := &ApproxMaxFlow{Mode: core.ModeUniversal, Epsilon: 0.1, Seed: 1}
			res, err := a.Run(c.g, c.s, c.t)
			if err != nil {
				t.Fatal(err)
			}
			if res.Value != res.ExactValue {
				t.Fatalf("approx=%d exact=%d", res.Value, res.ExactValue)
			}
			if res.Solves <= 0 || res.Rounds <= 0 {
				t.Fatalf("accounting: %+v", res)
			}
			// The returned flow routes ~Value units with bounded
			// congestion.
			div := make([]float64, c.g.N())
			for id, e := range c.g.EdgeList() {
				div[e.U] += res.EdgeFlow[id]
				div[e.V] -= res.EdgeFlow[id]
			}
			if div[c.s] < 0.9*float64(res.Value) {
				t.Fatalf("source divergence %v for value %d", div[c.s], res.Value)
			}
			for id, e := range c.g.EdgeList() {
				if abs64(res.EdgeFlow[id]) > 1.35*float64(e.Weight) {
					t.Fatalf("edge %d congestion %v", id, abs64(res.EdgeFlow[id])/float64(e.Weight))
				}
			}
		})
	}
}

func TestApproxMaxFlowBadEpsilon(t *testing.T) {
	a := &ApproxMaxFlow{Mode: core.ModeUniversal, Epsilon: 0.7}
	if _, err := a.Run(graph.Path(3), 0, 2); err == nil {
		t.Fatal("want epsilon error")
	}
}

func TestApproxMaxFlowDisconnected(t *testing.T) {
	g := edgeGraph(t, 4, [][3]int64{{0, 1, 1}, {2, 3, 1}})
	a := &ApproxMaxFlow{Mode: core.ModeUniversal, Epsilon: 0.1}
	res, err := a.Run(g, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 0 || res.ExactValue != 0 {
		t.Fatalf("res=%+v", res)
	}
}

func abs64(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}

// Property: the approximation is within (1±3ε) of the exact optimum on
// random weighted graphs.
func TestApproxMaxFlowProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.RandomConnected(10, 6, 4, seed)
		a := &ApproxMaxFlow{Mode: core.ModeUniversal, Epsilon: 0.12, Seed: seed}
		res, err := a.Run(g, 0, 9)
		if err != nil {
			return false
		}
		lo := float64(res.ExactValue) * 0.6
		hi := float64(res.ExactValue)*1.36 + 1
		return float64(res.Value) >= lo && float64(res.Value) <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}
