package treewidth

import (
	"errors"
	"testing"
	"testing/quick"

	"distlap/internal/graph"
	"distlap/internal/layered"
	"distlap/internal/minor"
)

func TestHeuristicWidths(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		want int // expected heuristic width (== treewidth on these inputs)
	}{
		{name: "single", g: graph.Path(1), want: 0},
		{name: "path", g: graph.Path(8), want: 1},
		{name: "tree", g: graph.CompleteTree(2, 4), want: 1},
		{name: "caterpillar", g: graph.Caterpillar(5, 3), want: 1},
		{name: "cycle", g: graph.Cycle(7), want: 2},
		{name: "complete5", g: graph.Complete(5), want: 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d := Heuristic(tt.g)
			if err := d.Validate(tt.g); err != nil {
				t.Fatal(err)
			}
			if d.Width() != tt.want {
				t.Fatalf("width=%d, want %d", d.Width(), tt.want)
			}
		})
	}
}

func TestHeuristicGridBound(t *testing.T) {
	// tw(k x k grid) = k; min-fill typically achieves it (allow slack 1).
	for _, k := range []int{3, 4, 5} {
		g := graph.Grid(k, k)
		d := Heuristic(g)
		if err := d.Validate(g); err != nil {
			t.Fatal(err)
		}
		if d.Width() < k || d.Width() > k+1 {
			t.Fatalf("grid %d: width=%d", k, d.Width())
		}
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	g := graph.Path(3) // nodes 0-1-2
	// Missing edge coverage: bags {0,1} {2} joined.
	d := &Decomposition{
		Bags:  [][]graph.NodeID{{0, 1}, {2}},
		Edges: [][2]int{{0, 1}},
	}
	if err := d.Validate(g); !errors.Is(err, ErrEdgeUncovered) {
		t.Fatalf("err=%v", err)
	}
	// Node not covered.
	d = &Decomposition{
		Bags:  [][]graph.NodeID{{0, 1}, {1, 2}},
		Edges: [][2]int{{0, 1}},
	}
	if err := d.Validate(g); err != nil {
		t.Fatalf("valid decomposition rejected: %v", err)
	}
	d = &Decomposition{
		Bags:  [][]graph.NodeID{{0, 1}},
		Edges: nil,
	}
	if err := d.Validate(g); !errors.Is(err, ErrNodeUncovered) {
		t.Fatalf("err=%v", err)
	}
	// Not a tree (cycle).
	d = &Decomposition{
		Bags:  [][]graph.NodeID{{0, 1}, {1, 2}, {0, 2}},
		Edges: [][2]int{{0, 1}, {1, 2}},
	}
	// 3 bags, 2 edges is a tree; make it a cycle by 3 edges.
	d.Edges = append(d.Edges, [2]int{2, 0})
	if err := d.Validate(g); !errors.Is(err, ErrNotTree) {
		t.Fatalf("err=%v", err)
	}
	// Contiguity violation: node 1 in bags 0 and 2 but not 1.
	d = &Decomposition{
		Bags:  [][]graph.NodeID{{0, 1}, {0, 2}, {1, 2}},
		Edges: [][2]int{{0, 1}, {1, 2}},
	}
	if err := d.Validate(g); !errors.Is(err, ErrNotContiguous) {
		t.Fatalf("err=%v", err)
	}
}

func TestLiftToLayeredLemma19(t *testing.T) {
	// Lemma 19: tw(Ĝ_p) <= p*tw(G) + p - 1; the lift realizes exactly
	// p*(w+1) - 1.
	bases := []struct {
		name string
		g    *graph.Graph
	}{
		{name: "path", g: graph.Path(10)},
		{name: "tree", g: graph.CompleteTree(2, 4)},
		{name: "cycle", g: graph.Cycle(8)},
		{name: "grid", g: graph.Grid(3, 3)},
	}
	for _, b := range bases {
		d := Heuristic(b.g)
		w := d.Width()
		for _, p := range []int{1, 2, 3, 4} {
			l, err := layered.New(b.g, p)
			if err != nil {
				t.Fatal(err)
			}
			lifted := LiftToLayered(d, l)
			if err := lifted.Validate(l.G); err != nil {
				t.Fatalf("%s p=%d: lifted decomposition invalid: %v", b.name, p, err)
			}
			want := p*(w+1) - 1
			if lifted.Width() != want {
				t.Fatalf("%s p=%d: lifted width=%d, want %d", b.name, p, lifted.Width(), want)
			}
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	g := graph.Path(0)
	d := Heuristic(g)
	if err := d.Validate(g); err != nil {
		t.Fatal(err)
	}
}

// Property: the heuristic always produces a valid decomposition on random
// connected graphs, with width at least the trivial lower bound
// (min degree over a 2-core-ish check skipped; just >= 1 when m >= n).
func TestHeuristicValidProperty(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		n := int(nn%25) + 3
		g := graph.RandomConnected(n, n/2, 1, seed)
		d := Heuristic(g)
		if err := d.Validate(g); err != nil {
			return false
		}
		return d.Width() >= 1 && d.Width() < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: lifted decompositions of random trees are valid with width
// exactly 2p-1 (trees have width 1).
func TestLiftPropertyOnTrees(t *testing.T) {
	f := func(seed int64, pp uint8) bool {
		p := int(pp%4) + 1
		g := graph.RandomConnected(15, 0, 1, seed) // spanning tree only
		d := Heuristic(g)
		if d.Width() != 1 {
			return false
		}
		l, err := layered.New(g, p)
		if err != nil {
			return false
		}
		lifted := LiftToLayered(d, l)
		return lifted.Validate(l.G) == nil && lifted.Width() == 2*p-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Lemma 12: δ(G) <= tw(G). Certified minor densities (lower bounds on δ)
// must therefore stay below the heuristic width (an upper bound on tw),
// up to the +1 from density-vs-clique-size accounting.
func TestLemma12DensityBelowTreewidth(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Path(20),
		graph.Cycle(12),
		graph.Grid(4, 4),
		graph.RandomConnected(30, 20, 1, 5),
	}
	for _, g := range graphs {
		w := Heuristic(g).Width()
		cert := minor.GreedyDenseMinor(g, 3)
		if err := cert.Validate(g); err != nil {
			t.Fatal(err)
		}
		if d := cert.Density(g); d > float64(w)+1 {
			t.Fatalf("certified density %v exceeds width %d + 1 (Lemma 12 violated)", d, w)
		}
	}
}
