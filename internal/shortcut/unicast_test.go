package shortcut

import (
	"errors"
	"testing"
	"testing/quick"

	"distlap/internal/congest"
	"distlap/internal/graph"
)

func newNet(g *graph.Graph) *congest.Network {
	return congest.NewNetwork(g, congest.Options{Seed: 1})
}

func TestMultipleUnicastSinglePair(t *testing.T) {
	g := graph.Path(6)
	nw := newNet(g)
	sol, err := SolveMultipleUnicast(nw, []UnicastPair{{Source: 0, Sink: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Dilation != 5 || sol.Congestion != 1 {
		t.Fatalf("d=%d c=%d", sol.Dilation, sol.Congestion)
	}
	if sol.Makespan != 5 {
		t.Fatalf("makespan=%d", sol.Makespan)
	}
}

func TestMultipleUnicastCongestion(t *testing.T) {
	// k pairs all crossing the single bridge of a barbell.
	g := graph.Barbell(4, 0) // cliques {0..3}, {4..7}, bridge edge 3-4
	nw := newNet(g)
	var pairs []UnicastPair
	for i := 0; i < 4; i++ {
		pairs = append(pairs, UnicastPair{Source: i, Sink: 4 + i})
	}
	sol, err := SolveMultipleUnicast(nw, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Congestion != 4 {
		t.Fatalf("congestion=%d, want 4 (all cross the bridge)", sol.Congestion)
	}
	if sol.Makespan < 4 {
		t.Fatalf("makespan=%d < congestion", sol.Makespan)
	}
}

func TestMultipleUnicastDisconnected(t *testing.T) {
	g, err := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1, Weight: 1}, {U: 2, V: 3, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	nw := newNet(g)
	if _, err := SolveMultipleUnicast(nw, []UnicastPair{{Source: 0, Sink: 3}}); !errors.Is(err, ErrNoPath) {
		t.Fatalf("err=%v", err)
	}
}

func TestMultipleUnicastSameNodePair(t *testing.T) {
	g := graph.Path(3)
	nw := newNet(g)
	sol, err := SolveMultipleUnicast(nw, []UnicastPair{{Source: 1, Sink: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Dilation != 0 || sol.Makespan != 0 {
		t.Fatalf("self pair: %+v", sol)
	}
}

func TestAnyToAnyCastMatchesNearest(t *testing.T) {
	g := graph.Path(10)
	nw := newNet(g)
	sources := []graph.NodeID{0, 9}
	sinks := []graph.NodeID{8, 1}
	sol, match, err := SolveAnyToAnyCast(nw, sources, sinks)
	if err != nil {
		t.Fatal(err)
	}
	// Source 0 should take sink 1 (index 1), source 9 sink 8 (index 0).
	if match[0] != 1 || match[1] != 0 {
		t.Fatalf("match=%v", match)
	}
	if sol.Dilation != 1 {
		t.Fatalf("dilation=%d, want 1", sol.Dilation)
	}
}

func TestAnyToAnyCastMismatchedSizes(t *testing.T) {
	nw := newNet(graph.Path(4))
	if _, _, err := SolveAnyToAnyCast(nw, []graph.NodeID{0}, nil); err == nil {
		t.Fatal("want size error")
	}
}

func TestWitnessDecomposition(t *testing.T) {
	g := graph.Grid(4, 4)
	// Two row paths and two column paths: congestion 2 at crossings.
	w := &WitnessFamily{Paths: [][]graph.NodeID{
		{0, 1, 2, 3},
		{12, 13, 14, 15},
		{0, 4, 8, 12},
		{3, 7, 11, 15},
	}}
	if p := w.NodeCongestion(); p != 2 {
		t.Fatalf("congestion=%d", p)
	}
	classes := w.DecomposeDisjoint()
	if err := w.Validate(g, classes); err != nil {
		t.Fatal(err)
	}
	if len(classes) < 2 || len(classes) > 3 {
		t.Fatalf("classes=%d", len(classes))
	}
}

func TestWitnessValidateCatchesBadPath(t *testing.T) {
	g := graph.Path(4)
	w := &WitnessFamily{Paths: [][]graph.NodeID{{0, 2}}}
	if err := w.Validate(g, nil); err == nil {
		t.Fatal("want non-edge error")
	}
	w2 := &WitnessFamily{Paths: [][]graph.NodeID{{0, 1}, {1, 2}}}
	if err := w2.Validate(g, [][]int{{0, 1}}); err == nil {
		t.Fatal("want shared-node error")
	}
}

// Property: the makespan of a multiple-unicast schedule is at least
// max(dilation, congestion) and the decomposition classes are always
// node-disjoint.
func TestUnicastProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.RandomConnected(20, 15, 1, seed)
		nw := congest.NewNetwork(g, congest.Options{Seed: seed})
		pairs := []UnicastPair{
			{Source: 0, Sink: 10}, {Source: 1, Sink: 11},
			{Source: 2, Sink: 12}, {Source: 3, Sink: 13},
		}
		sol, err := SolveMultipleUnicast(nw, pairs)
		if err != nil {
			return false
		}
		lower := sol.Dilation
		if sol.Congestion > lower {
			lower = sol.Congestion
		}
		if sol.Makespan < lower {
			return false
		}
		w := &WitnessFamily{}
		for i, path := range sol.Paths {
			nodes := []graph.NodeID{pairs[i].Source}
			v := pairs[i].Source
			for _, id := range path {
				v = g.Other(id, v)
				nodes = append(nodes, v)
			}
			w.Paths = append(w.Paths, nodes)
		}
		classes := w.DecomposeDisjoint()
		return w.Validate(g, classes) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
