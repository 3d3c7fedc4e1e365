package layered

import (
	"fmt"
	"testing"
	"testing/quick"

	"distlap/internal/graph"
)

func TestNewLayeredShape(t *testing.T) {
	base := graph.Grid(3, 3) // n=9, m=12
	for _, p := range []int{1, 2, 3, 5} {
		l, err := New(base, p)
		if err != nil {
			t.Fatal(err)
		}
		wantN := 9 * p
		wantM := 12*p + 9*p*(p-1)/2
		if l.G.N() != wantN || l.G.M() != wantM {
			t.Fatalf("p=%d: n=%d m=%d, want %d, %d", p, l.G.N(), l.G.M(), wantN, wantM)
		}
		if err := l.G.Validate(); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if !graph.IsConnected(l.G) {
			t.Fatalf("p=%d: layered graph disconnected", p)
		}
	}
}

func TestNewLayeredBadP(t *testing.T) {
	if _, err := New(graph.Path(2), 0); err == nil {
		t.Fatal("want error for p=0")
	}
}

// project maps a layered node back to its base node and layer (the
// projection π of the paper), inverting Copy.
func project(l *Layered, x graph.NodeID) (v graph.NodeID, layer int) {
	n := l.Base.N()
	return x % n, x / n
}

// pairIndex enumerates pairs (i, j), j > i, of [0, p) in lexicographic
// order: the position of a node's clique edge among its pairs.
func pairIndex(p, i, j int) int {
	return i*(2*p-i-1)/2 + (j - i - 1)
}

func TestCopyProjectRoundtrip(t *testing.T) {
	base := graph.Path(7)
	l, err := New(base, 4)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 7; v++ {
		for layer := 0; layer < 4; layer++ {
			x := l.Copy(v, layer)
			pv, pl := project(l, x)
			if pv != v || pl != layer {
				t.Fatalf("roundtrip (%d,%d) -> %d -> (%d,%d)", v, layer, x, pv, pl)
			}
		}
	}
}

// TestLayerEdgeAndCliqueEdge pins the positional edge IDs the Layered doc
// promises: layer l's copy of base edge e is l*m + e, and the clique edge
// joining copies i < j of base node v is p*m + v*p(p-1)/2 + pairIndex(p, i, j).
func TestLayerEdgeAndCliqueEdge(t *testing.T) {
	base := graph.Path(3) // edges 0:(0-1) 1:(1-2)
	const p = 3
	l, err := New(base, p)
	if err != nil {
		t.Fatal(err)
	}
	m := base.M()
	for layer := 0; layer < p; layer++ {
		for be := 0; be < m; be++ {
			e := l.G.Edge(layer*m + be)
			bu, blu := project(l, e.U)
			bv, blv := project(l, e.V)
			if blu != layer || blv != layer {
				t.Fatalf("layer edge in wrong layer: %d/%d", blu, blv)
			}
			bb := base.Edge(be)
			if !(bu == bb.U && bv == bb.V || bu == bb.V && bv == bb.U) {
				t.Fatalf("layer edge endpoints wrong")
			}
		}
	}
	for v := 0; v < base.N(); v++ {
		e := l.G.Edge(p*m + v*p*(p-1)/2 + pairIndex(p, 0, 2))
		au, alu := project(l, e.U)
		av, alv := project(l, e.V)
		if au != v || av != v {
			t.Fatalf("clique edge not on node %d", v)
		}
		if alu != 0 || alv != 2 {
			t.Fatalf("clique layers (%d,%d), want (0,2)", alu, alv)
		}
	}
}

func TestSimulatedRounds(t *testing.T) {
	l, _ := New(graph.Path(4), 5)
	if l.SimulatedRounds(7) != 35 {
		t.Fatal("Lemma 16 accounting wrong")
	}
}

func TestPairIndexExhaustive(t *testing.T) {
	for p := 2; p <= 8; p++ {
		seen := make(map[int]bool)
		for i := 0; i < p; i++ {
			for j := i + 1; j < p; j++ {
				idx := pairIndex(p, i, j)
				if idx < 0 || idx >= p*(p-1)/2 || seen[idx] {
					t.Fatalf("p=%d pair (%d,%d) -> %d invalid/dup", p, i, j, idx)
				}
				seen[idx] = true
			}
		}
	}
}

func TestColorEdgesProper(t *testing.T) {
	// Multigraph with parallel edges.
	m := &Multigraph{N: 4, Edges: [][2]int{{0, 1}, {0, 1}, {1, 2}, {2, 3}, {3, 0}, {1, 3}}}
	res, err := ColorEdges(m, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyColoring(m, res.Colors); err != nil {
		t.Fatal(err)
	}
	if res.Palette != 4*m.MaxDegree() {
		t.Fatalf("palette=%d", res.Palette)
	}
	if res.Rounds < 1 {
		t.Fatal("rounds not counted")
	}
}

func TestColorEdgesEmpty(t *testing.T) {
	m := &Multigraph{N: 3}
	res, err := ColorEdges(m, 1)
	if err != nil || len(res.Colors) != 0 {
		t.Fatalf("res=%v err=%v", res, err)
	}
}

func TestVerifyColoringDetectsConflicts(t *testing.T) {
	m := &Multigraph{N: 3, Edges: [][2]int{{0, 1}, {1, 2}}}
	if err := VerifyColoring(m, []int{0, 0}); err == nil {
		t.Fatal("want conflict at node 1")
	}
	if err := VerifyColoring(m, []int{0}); err == nil {
		t.Fatal("want length mismatch")
	}
	if err := VerifyColoring(m, []int{0, -1}); err == nil {
		t.Fatal("want uncolored error")
	}
	if err := VerifyColoring(m, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
}

func TestColoringRoundsLogarithmic(t *testing.T) {
	// A long path multigraph: Δ=2, palette 8; rounds should be well below
	// the edge count.
	n := 2048
	m := &Multigraph{N: n}
	for i := 0; i+1 < n; i++ {
		m.Edges = append(m.Edges, [2]int{i, i + 1})
	}
	res, err := ColorEdges(m, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds > 12*log2(n) {
		t.Fatalf("rounds=%d too large for n=%d", res.Rounds, n)
	}
	if err := VerifyColoring(m, res.Colors); err != nil {
		t.Fatal(err)
	}
}

// gridPaths returns the Figure 1 instance: every row and every column of an
// s x s grid as a path (each node in exactly 2 parts).
func gridPaths(s int) (*graph.Graph, []Path) {
	g := graph.Grid(s, s)
	edgeBetween := func(u, v graph.NodeID) graph.EdgeID {
		for _, h := range g.Neighbors(u) {
			if h.To == v {
				return h.Edge
			}
		}
		panic("no edge")
	}
	var paths []Path
	for r := 0; r < s; r++ {
		p := Path{}
		for c := 0; c < s; c++ {
			p.Nodes = append(p.Nodes, graph.GridID(s, r, c))
			if c > 0 {
				p.Edges = append(p.Edges, edgeBetween(graph.GridID(s, r, c-1), graph.GridID(s, r, c)))
			}
		}
		paths = append(paths, p)
	}
	for c := 0; c < s; c++ {
		p := Path{}
		for r := 0; r < s; r++ {
			p.Nodes = append(p.Nodes, graph.GridID(s, r, c))
			if r > 0 {
				p.Edges = append(p.Edges, edgeBetween(graph.GridID(s, r-1, c), graph.GridID(s, r, c)))
			}
		}
		paths = append(paths, p)
	}
	return g, paths
}

func TestEmbedPathsFigure1(t *testing.T) {
	g, paths := gridPaths(5)
	emb, err := EmbedPaths(g, paths, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(emb.Parts) != 10 {
		t.Fatalf("parts=%d", len(emb.Parts))
	}
	// Lemma 18: embedding uses O(Δ_M) = O(4) layers.
	if emb.L > 16 {
		t.Fatalf("L=%d layers, want O(p)", emb.L)
	}
	// Each canonical copy projects back to the path node.
	for j, p := range paths {
		for i, v := range p.Nodes {
			pv, _ := project(emb.Layered, emb.Canonical[j][i])
			if pv != v {
				t.Fatalf("path %d node %d: canonical projects to %d", j, i, pv)
			}
		}
	}
}

func TestEmbedPathsRejectsBadInput(t *testing.T) {
	g := graph.Path(4)
	if _, err := EmbedPaths(g, nil, 1); err == nil {
		t.Fatal("want error for empty batch")
	}
	if _, err := EmbedPaths(g, []Path{{Nodes: []graph.NodeID{2}}}, 1); err == nil {
		t.Fatal("want error for singleton path")
	}
	if _, err := EmbedPaths(g, []Path{{Nodes: []graph.NodeID{0, 2}, Edges: []graph.EdgeID{0}}}, 1); err == nil {
		t.Fatal("want error for non-path edge sequence")
	}
	if _, err := EmbedPaths(g, []Path{{Nodes: []graph.NodeID{0, 1, 0}, Edges: []graph.EdgeID{0, 0}}}, 1); err == nil {
		t.Fatal("want error for repeated node")
	}
}

func TestPathValidate(t *testing.T) {
	g := graph.Path(5)
	good := Path{Nodes: []graph.NodeID{1, 2, 3}, Edges: []graph.EdgeID{1, 2}}
	if err := good.Validate(g); err != nil {
		t.Fatal(err)
	}
	bad := Path{Nodes: []graph.NodeID{1, 2}, Edges: nil}
	if err := bad.Validate(g); err == nil {
		t.Fatal("want edge count error")
	}
}

// Property: embeddings of random path batches are always 1-congested and
// connected (verify() enforces it; here we re-check congestion from the
// outside) and the layer count stays within the palette bound 8p.
func TestEmbedPathsProperty(t *testing.T) {
	f := func(seed int64) bool {
		g, paths := gridPaths(4)
		emb, err := EmbedPaths(g, paths, seed)
		if err != nil {
			return false
		}
		// Max node congestion of the original instance is 2; palette bound
		// is 4*Δ_M = 4*(2*2) = 16 layers.
		if emb.L > 16 {
			return false
		}
		seen := make(map[graph.NodeID]bool)
		for _, part := range emb.Parts {
			for _, x := range part {
				if seen[x] {
					return false
				}
				seen[x] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkLayeredNew times building Ĝ_p of a 16×16 grid at p = 4 and
// p = 8 (1,024 and 2,048 nodes), the layered graph every layered
// part-wise aggregation builds.
func BenchmarkLayeredNew(b *testing.B) {
	base := graph.Grid(16, 16)
	for _, p := range []int{4, 8} {
		b.Run(fmt.Sprintf("grid-256/p=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New(base, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
