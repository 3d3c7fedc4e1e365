package graph

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMPXDecompositionPartitions(t *testing.T) {
	g := Grid(8, 8)
	clusters := MPXDecomposition(g, MPXOptions{Beta: 0.5, Seed: 3})
	seen := make(map[NodeID]int)
	var sub Induced
	for _, cl := range clusters {
		if len(cl) == 0 {
			t.Fatal("empty cluster")
		}
		if !sub.Connected(g, cl) {
			t.Fatalf("cluster %v disconnected", cl)
		}
		for _, v := range cl {
			seen[v]++
		}
	}
	if len(seen) != 64 {
		t.Fatalf("covered %d nodes", len(seen))
	}
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("node %d in %d clusters", v, c)
		}
	}
}

func TestMPXBetaControlsClusterCount(t *testing.T) {
	g := Grid(10, 10)
	small := len(MPXDecomposition(g, MPXOptions{Beta: 0.05, Seed: 1}))
	large := len(MPXDecomposition(g, MPXOptions{Beta: 2.0, Seed: 1}))
	if small >= large {
		t.Fatalf("beta=0.05 gave %d clusters, beta=2 gave %d (want increase)", small, large)
	}
}

func TestMPXDeterministic(t *testing.T) {
	g := RandomRegular(50, 4, 2)
	a := MPXDecomposition(g, MPXOptions{Beta: 0.7, Seed: 9})
	b := MPXDecomposition(g, MPXOptions{Beta: 0.7, Seed: 9})
	if len(a) != len(b) {
		t.Fatal("nondeterministic cluster count")
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatal("nondeterministic clusters")
		}
	}
}

func TestMPXEmptyAndDefaults(t *testing.T) {
	if MPXDecomposition(fromValid(0, nil), MPXOptions{}) != nil {
		t.Fatal("empty graph should give nil")
	}
	// Zero beta picks the default without panicking.
	if len(MPXDecomposition(Path(5), MPXOptions{Seed: 1})) == 0 {
		t.Fatal("no clusters")
	}
}

func TestLowStretchTreeSpans(t *testing.T) {
	for _, g := range []*Graph{
		Path(10), Cycle(12), Grid(6, 6), RandomRegular(60, 4, 5),
		RandomConnected(40, 30, 10, 2),
	} {
		tr := LowStretchTree(g, 1)
		if len(tr.Members) != g.N() {
			t.Fatalf("n=%d: tree spans %d", g.N(), len(tr.Members))
		}
		if s := AverageStretch(g, tr); math.IsInf(s, 1) || s < 1-1e-9 {
			t.Fatalf("stretch %v", s)
		}
	}
}

func TestLowStretchBeatsBFSOnGrid(t *testing.T) {
	g := Grid(16, 16)
	bfs := CenterTree(g)
	lst := LowStretchTree(g, 1)
	sb, sl := AverageStretch(g, bfs), AverageStretch(g, lst)
	if sl >= sb {
		t.Fatalf("LST stretch %v >= BFS stretch %v on the grid", sl, sb)
	}
}

func TestAverageStretchTreeIsOne(t *testing.T) {
	// On a tree, every edge's detour is itself: stretch exactly 1.
	g := CompleteTree(2, 5)
	tr := BFSTree(g, 0)
	if s := AverageStretch(g, tr); math.Abs(s-1) > 1e-12 {
		t.Fatalf("stretch %v, want 1", s)
	}
}

func TestAverageStretchCycle(t *testing.T) {
	// Unit cycle of n nodes: any spanning tree is a path; the one removed
	// edge has stretch n-1, the rest 1 → average (2n-2)/n.
	n := 10
	g := Cycle(n)
	ids, _ := MST(g)
	tr := TreeFromEdges(g, ids, 0)
	want := float64(2*n-2) / float64(n)
	if s := AverageStretch(g, tr); math.Abs(s-want) > 1e-9 {
		t.Fatalf("stretch %v, want %v", s, want)
	}
}

func TestAverageStretchDisconnectedTree(t *testing.T) {
	g := Grid(3, 3)
	// A tree covering only part of the graph (the top row): stretch is
	// infinite.
	var row []EdgeID
	for _, h := range g.Neighbors(1) {
		if h.To == 0 || h.To == 2 {
			row = append(row, h.Edge)
		}
	}
	tr := TreeFromEdges(g, row, 0)
	if !math.IsInf(AverageStretch(g, tr), 1) {
		t.Fatal("want +Inf for non-spanning tree")
	}
}

// Property: LowStretchTree always spans random connected graphs and its
// stretch is finite; MPX always partitions.
func TestLowStretchProperty(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		n := int(nn%40) + 5
		g := RandomConnected(n, n/2, 7, seed)
		tr := LowStretchTree(g, seed)
		if len(tr.Members) != n {
			return false
		}
		if math.IsInf(AverageStretch(g, tr), 1) {
			return false
		}
		clusters := MPXDecomposition(g, MPXOptions{Beta: 0.5, Seed: seed})
		total := 0
		for _, cl := range clusters {
			total += len(cl)
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
