package shortcut

import (
	"testing"
	"testing/quick"

	"distlap/internal/graph"
)

func TestRegionBuilderGridRows(t *testing.T) {
	g := graph.Grid(8, 8)
	s, err := RegionBuilder{}.Build(g, gridRows(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, s); err != nil {
		t.Fatal(err)
	}
	// Rows are low-diameter; region trees must not blow dilation past the
	// trivial builder's by more than the region radius.
	if s.Quality() > 4*8 {
		t.Fatalf("quality=%d", s.Quality())
	}
}

func TestRegionBuilderMixedScales(t *testing.T) {
	// A partition with one giant part and many tiny parts: the multi-scale
	// construction should give tiny parts small-region trees, so its
	// quality is not dominated by the global diameter for them.
	g := graph.Grid(10, 10)
	var parts [][]graph.NodeID
	// Tiny parts: 2-node dominoes in the top rows.
	for c := 0; c+1 < 10; c += 2 {
		parts = append(parts, []graph.NodeID{graph.GridID(10, 0, c), graph.GridID(10, 0, c+1)})
	}
	// A snake part across the bottom half.
	var snake []graph.NodeID
	for c := 0; c < 10; c++ {
		snake = append(snake, graph.GridID(10, 9, c))
	}
	parts = append(parts, snake)
	s, err := RegionBuilder{}.Build(g, parts)
	if err != nil {
		t.Fatal(err)
	}
	if s.Quality() <= 0 {
		t.Fatal("degenerate quality")
	}
}

func TestRegionHierarchyLaminar(t *testing.T) {
	g := graph.Grid(8, 8)
	regions, leafOf, err := buildRegionHierarchy(new(graph.Induced), g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) < 3 {
		t.Fatalf("hierarchy did not split: %d regions", len(regions))
	}
	// Every node's leaf region contains it; parents contain children.
	for v := 0; v < g.N(); v++ {
		r := leafOf[v]
		for r != -1 {
			found := false
			for _, u := range regions[r].nodes {
				if u == v {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("node %d missing from ancestor region %d", v, r)
			}
			r = regions[r].parent
		}
	}
	// Regions are connected.
	var sub graph.Induced
	for i, reg := range regions {
		if !sub.Connected(g, reg.nodes) {
			t.Fatalf("region %d disconnected", i)
		}
	}
}

func TestSplitByMiddleLayerPath(t *testing.T) {
	g := graph.Path(16)
	all := make([]graph.NodeID, 16)
	for i := range all {
		all[i] = i
	}
	// The middle BFS layer from the path's center removes two nodes,
	// leaving two or three pieces depending on folding.
	children := splitByMiddleLayer(new(graph.Induced), g, all)
	if len(children) < 2 {
		t.Fatalf("children=%d", len(children))
	}
	total := 0
	for _, ch := range children {
		total += len(ch)
		if !new(graph.Induced).Connected(g, ch) {
			t.Fatal("child disconnected")
		}
	}
	if total != 16 {
		t.Fatalf("covered %d", total)
	}
}

func TestSplitByMiddleLayerDegenerate(t *testing.T) {
	g := graph.Complete(5) // height 1 BFS tree: no balanced split
	all := []graph.NodeID{0, 1, 2, 3, 4}
	if children := splitByMiddleLayer(new(graph.Induced), g, all); children != nil {
		t.Fatalf("unexpected split: %v", children)
	}
}

// Property: the region builder produces verified shortcuts on random
// connected graphs with tree partitions, and its quality never loses to
// the portfolio by definition of the portfolio.
func TestRegionBuilderProperty(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		n := int(nn%40) + 8
		g := graph.RandomConnected(n, n/2, 1, seed)
		parts := TreePartition(g, 4)
		s, err := RegionBuilder{}.Build(g, parts)
		if err != nil {
			return false
		}
		best, err := WidePortfolio().Build(g, parts)
		if err != nil {
			return false
		}
		return best.Quality() <= s.Quality()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
