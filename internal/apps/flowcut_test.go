package apps

import (
	"testing"
	"testing/quick"

	"distlap/internal/graph"
)

func TestMaxFlowExactPath(t *testing.T) {
	g := graph.New(4)
	g.MustAddEdge(0, 1, 5)
	g.MustAddEdge(1, 2, 3)
	g.MustAddEdge(2, 3, 7)
	res, err := MaxFlowExact(g, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 3 {
		t.Fatalf("flow=%d, want 3 (bottleneck)", res.Value)
	}
	if CutValue(g, res.CutS) != 3 {
		t.Fatalf("cut value %d != flow", CutValue(g, res.CutS))
	}
}

func TestMaxFlowExactParallelPaths(t *testing.T) {
	// Two disjoint s-t paths of capacity 2 and 3.
	g := graph.New(4)
	g.MustAddEdge(0, 1, 2)
	g.MustAddEdge(1, 3, 2)
	g.MustAddEdge(0, 2, 3)
	g.MustAddEdge(2, 3, 3)
	res, err := MaxFlowExact(g, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 5 {
		t.Fatalf("flow=%d, want 5", res.Value)
	}
}

func TestMaxFlowExactBarbell(t *testing.T) {
	g := graph.Barbell(4, 0) // single bridge of weight 1
	res, err := MaxFlowExact(g, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 1 {
		t.Fatalf("flow=%d, want 1", res.Value)
	}
	if len(res.CutS) != 4 {
		t.Fatalf("cut side=%v", res.CutS)
	}
}

func TestMaxFlowExactErrors(t *testing.T) {
	g := graph.Path(3)
	if _, err := MaxFlowExact(g, 0, 0); err == nil {
		t.Fatal("want s==t error")
	}
	if _, err := MaxFlowExact(g, 0, 9); err == nil {
		t.Fatal("want range error")
	}
	// Disconnected: flow 0, cut = s's component.
	dg := graph.New(4)
	dg.MustAddEdge(0, 1, 1)
	dg.MustAddEdge(2, 3, 1)
	res, err := MaxFlowExact(dg, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 0 || len(res.CutS) != 2 {
		t.Fatalf("res=%+v", res)
	}
}

// Property: exact max flow equals exact min cut (duality).
func TestFlowCutDualityProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.RandomConnected(14, 10, 6, seed)
		res, err := MaxFlowExact(g, 0, 13)
		if err != nil {
			return false
		}
		return CutValue(g, res.CutS) == res.Value
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
