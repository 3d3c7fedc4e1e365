package graph

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	g, err := FromEdges(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 5 || g.M() != 0 {
		t.Fatalf("got n=%d m=%d, want 5, 0", g.N(), g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
}

// TestAddEdgeErrors pins the sentinel error FromEdges returns for each
// edge it cannot add, wrapped with the index of the edge, after a valid one,
// and ErrTooLarge for a graph whose nodes or directed edges int32 cannot
// index, checked before anything the size of the graph is allocated.
func TestAddEdgeErrors(t *testing.T) {
	tests := []struct {
		name    string
		n       int64
		e       Edge
		wantErr error
		prefix  string
	}{
		{name: "out of range u", n: 3, e: Edge{U: -1, V: 0, Weight: 1}, wantErr: ErrNodeRange, prefix: "edge 1: "},
		{name: "out of range v", n: 3, e: Edge{U: 0, V: 3, Weight: 1}, wantErr: ErrNodeRange, prefix: "edge 1: "},
		{name: "self loop", n: 3, e: Edge{U: 1, V: 1, Weight: 1}, wantErr: ErrSelfLoop, prefix: "edge 1: "},
		{name: "zero weight", n: 3, e: Edge{U: 0, V: 1, Weight: 0}, wantErr: ErrBadWeight, prefix: "edge 1: "},
		{name: "negative weight", n: 3, e: Edge{U: 0, V: 1, Weight: -2}, wantErr: ErrBadWeight, prefix: "edge 1: "},
		{name: "too many nodes", n: math.MaxInt32 + 1, e: Edge{U: 0, V: 1, Weight: 1}, wantErr: ErrTooLarge, prefix: "graph: too large"},
		{name: "node count past the allocator", n: 1 << 50, e: Edge{U: 0, V: 1, Weight: 1}, wantErr: ErrTooLarge, prefix: "graph: too large"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if int64(int(tt.n)) != tt.n {
				t.Skip("n does not fit this platform's int")
			}
			g, err := FromEdges(int(tt.n), []Edge{{U: 0, V: 2, Weight: 1}, tt.e})
			if !errors.Is(err, tt.wantErr) || !strings.HasPrefix(err.Error(), tt.prefix) || g != nil {
				t.Fatalf("FromEdges(%d, ..., %+v): graph %v, err=%v, want %s…: %v", tt.n, tt.e, g, err, tt.prefix, tt.wantErr)
			}
		})
	}
	// No test can hold 2^30 edges; the bound FromEdges and Read share is
	// checkSize, exact at both limits.
	for _, c := range []struct {
		n, m int64
		ok   bool
	}{
		{math.MaxInt32, math.MaxInt32 / 2, true},
		{math.MaxInt32 + 1, 0, false},
		{3, math.MaxInt32/2 + 1, false},
	} {
		if int64(int(c.n)) != c.n {
			continue // past this platform's int
		}
		if err := checkSize(int(c.n), int(c.m)); (err == nil) != c.ok || (err != nil && !errors.Is(err, ErrTooLarge)) {
			t.Fatalf("checkSize(%d, %d) = %v, want ok=%v", c.n, c.m, err, c.ok)
		}
	}
}

func TestAddEdgeAndAccessors(t *testing.T) {
	g := fromValid(4, []Edge{{U: 0, V: 1, Weight: 5}, {U: 1, V: 2, Weight: 3}, {U: 1, V: 2, Weight: 7}}) // a parallel edge
	if e := g.Edge(0); e.U != 0 || e.V != 1 || e.Weight != 5 {
		t.Fatalf("edge = %+v", e)
	}
	if g.Degree(1) != 3 {
		t.Fatalf("degree(1)=%d, want 3", g.Degree(1))
	}
	if !g.HasEdgeBetween(1, 2) || g.HasEdgeBetween(0, 3) {
		t.Fatal("HasEdgeBetween wrong")
	}
	if g.Other(0, 0) != 1 || g.Other(0, 1) != 0 {
		t.Fatal("Other wrong")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// addEdges is the sequential reference FromEdges must match: the graph
// built by adding edges one at a time, each appended to the edge list and
// to both endpoints' half-edges.
func addEdges(n int, edges []Edge) *Graph {
	g := &Graph{n: n, m: len(edges), adj: make([][]Half, n)}
	for id, e := range edges {
		g.edges = append(g.edges, e)
		g.adj[e.U] = append(g.adj[e.U], Half{To: e.V, Edge: id})
		g.adj[e.V] = append(g.adj[e.V], Half{To: e.U, Edge: id})
	}
	return g
}

// Property: FromEdges builds exactly the graph sequential edge additions
// (addEdges) build, on random multigraphs with parallel edges.
func TestFromEdgesMatchesAddEdgeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		m := rng.Intn(4 * n)
		var edges []Edge
		for len(edges) < m {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			e := Edge{U: u, V: v, Weight: 1 + rng.Int63n(9)}
			edges = append(edges, e)
			if rng.Intn(4) == 0 {
				edges = append(edges, e) // a parallel edge
			}
		}
		seq := addEdges(n, edges)
		g, err := FromEdges(n, slices.Clone(edges))
		if err != nil {
			t.Log(err)
			return false
		}
		if g.N() != seq.N() || g.M() != seq.M() || !slices.Equal(g.EdgeList(), seq.EdgeList()) {
			return false
		}
		for v := 0; v < n; v++ {
			if g.Degree(v) != seq.Degree(v) || !slices.Equal(g.Neighbors(v), seq.Neighbors(v)) {
				return false
			}
		}
		return g.Validate() == nil && seq.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSubgraph(t *testing.T) {
	g := Grid(3, 3)
	sub, orig := g.Subgraph([]NodeID{0, 1, 3, 4})
	if sub.N() != 4 {
		t.Fatalf("sub n=%d", sub.N())
	}
	// 2x2 corner of the grid has 4 edges.
	if sub.M() != 4 {
		t.Fatalf("sub m=%d, want 4", sub.M())
	}
	if orig[2] != 3 {
		t.Fatalf("orig[2]=%d, want 3", orig[2])
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratorsShape(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		n, m int
	}{
		{name: "path", g: Path(5), n: 5, m: 4},
		{name: "cycle", g: Cycle(5), n: 5, m: 5},
		{name: "grid3x4", g: Grid(3, 4), n: 12, m: 17},
		{name: "torus3x3", g: Torus(3, 3), n: 9, m: 18},
		{name: "star", g: Star(6), n: 6, m: 5},
		{name: "complete", g: Complete(5), n: 5, m: 10},
		{name: "tree b2 l3", g: CompleteTree(2, 3), n: 7, m: 6},
		{name: "caterpillar", g: Caterpillar(3, 2), n: 9, m: 8},
		{name: "barbell", g: Barbell(3, 2), n: 8, m: 9},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.g.N() != tt.n || tt.g.M() != tt.m {
				t.Fatalf("n=%d m=%d, want n=%d m=%d", tt.g.N(), tt.g.M(), tt.n, tt.m)
			}
			if err := tt.g.Validate(); err != nil {
				t.Fatal(err)
			}
			if !IsConnected(tt.g) {
				t.Fatal("generator produced disconnected graph")
			}
		})
	}
}

func TestRandomGeneratorsConnectedAndValid(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		g := RandomRegular(50, 4, seed)
		if err := g.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !IsConnected(g) {
			t.Fatalf("seed %d: RandomRegular disconnected", seed)
		}
		h := RandomConnected(40, 30, 10, seed)
		if err := h.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !IsConnected(h) {
			t.Fatalf("seed %d: RandomConnected disconnected", seed)
		}
		if h.M() < 39 {
			t.Fatalf("seed %d: too few edges %d", seed, h.M())
		}
	}
}

func TestRandomGeneratorsDeterministic(t *testing.T) {
	a := RandomConnected(30, 20, 5, 42)
	b := RandomConnected(30, 20, 5, 42)
	if a.M() != b.M() {
		t.Fatalf("nondeterministic edge count: %d vs %d", a.M(), b.M())
	}
	ae, be := a.EdgeList(), b.EdgeList()
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatalf("edge %d differs: %+v vs %+v", i, ae[i], be[i])
		}
	}
}

func TestBFSPath(t *testing.T) {
	g := Path(6)
	res := BFS(g, 0)
	for v := 0; v < 6; v++ {
		if res.Dist[v] != v {
			t.Fatalf("dist[%d]=%d, want %d", v, res.Dist[v], v)
		}
	}
	if res.Parent[0] != -1 || res.Parent[3] != 2 {
		t.Fatal("parents wrong")
	}
	if len(res.Order) != 6 || res.Order[0] != 0 {
		t.Fatal("order wrong")
	}
}

func TestDiameters(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want int
	}{
		{name: "path", g: Path(7), want: 6},
		{name: "cycle", g: Cycle(8), want: 4},
		{name: "grid", g: Grid(3, 4), want: 5},
		{name: "star", g: Star(9), want: 2},
		{name: "complete", g: Complete(6), want: 1},
		{name: "single", g: fromValid(1, nil), want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if d := Diameter(tt.g); d != tt.want {
				t.Fatalf("Diameter = %d, want %d", d, tt.want)
			}
			// Double sweep is a lower bound and at least half the diameter.
			da := DiameterApprox(tt.g)
			if da > tt.want || 2*da < tt.want {
				t.Fatalf("DiameterApprox = %d for diameter %d", da, tt.want)
			}
		})
	}
	g := fromValid(3, nil) // disconnected
	if Diameter(g) != -1 || DiameterApprox(g) != -1 {
		t.Fatal("disconnected diameter should be -1")
	}
}

func TestComponents(t *testing.T) {
	g := fromValid(6, []Edge{unit(0, 1), unit(2, 3), unit(3, 4)})
	comps := Components(g)
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3", len(comps))
	}
	if len(comps[0]) != 2 || len(comps[1]) != 3 || len(comps[2]) != 1 {
		t.Fatalf("component sizes wrong: %v", comps)
	}
	if IsConnected(g) {
		t.Fatal("IsConnected on disconnected graph")
	}
}

func TestInducedConnected(t *testing.T) {
	g := Grid(3, 3)
	var sub Induced
	if !sub.Connected(g, []NodeID{0, 1, 2}) {
		t.Fatal("top row should be connected")
	}
	if sub.Connected(g, []NodeID{0, 8}) {
		t.Fatal("opposite corners are not induced-connected")
	}
	if !sub.Connected(g, []NodeID{4}) || !sub.Connected(g, nil) {
		t.Fatal("singleton/empty should be vacuously connected")
	}
}

func TestBFSTree(t *testing.T) {
	g := Grid(4, 4)
	tr := BFSTree(g, 0)
	if h := int(slices.Max(tr.Depth)); h != 6 {
		t.Fatalf("height=%d, want 6", h)
	}
	if len(tr.Members) != 16 || tr.Members[0] != 0 || tr.Parent[0] != -1 {
		t.Fatalf("members=%v, root parent %d", tr.Members, tr.Parent[0])
	}
	checkParents(t, g, tr)
	// Only the root's component becomes the tree.
	g = fromValid(5, []Edge{unit(0, 1), unit(3, 4)})
	if tr := BFSTree(g, 4); len(tr.Members) != 2 || tr.Members[1] != 3 {
		t.Fatalf("tree of a two-node component: members %v", tr.Members)
	}
}

// TestCenterTree pins CenterTree to the composition it replaces, the BFS
// tree from ApproxCenter, on plain, layered and disconnected graphs.
func TestCenterTree(t *testing.T) {
	for _, g := range []*Graph{
		Grid(5, 7), RandomRegular(40, 3, 2), Layers(Path(5), 3),
		fromValid(6, []Edge{unit(0, 1), unit(3, 4), unit(4, 5)}),
	} {
		got, want := CenterTree(g), BFSTree(g, ApproxCenter(g))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: CenterTree %+v, want %+v", g.N(), got, want)
		}
	}
}

// checkParents fails unless every non-root member of tr has a parent
// listed before it, one hop shallower, joined to it by its parent edge.
func checkParents(t *testing.T, g *Graph, tr *PartTree) {
	t.Helper()
	for i := 1; i < len(tr.Members); i++ {
		p := tr.Parent[i]
		if p < 0 || p >= int32(i) || tr.Depth[i] != tr.Depth[p]+1 {
			t.Fatalf("member %d: parent %d, depth %d", i, p, tr.Depth[i])
		}
		e, u, v := g.Edge(int(tr.ParentEdge[i])), tr.Members[i], tr.Members[p]
		if !(e.U == u && e.V == v || e.U == v && e.V == u) {
			t.Fatalf("member %d: parent edge %d does not join nodes %d and %d", i, tr.ParentEdge[i], u, v)
		}
	}
}

func TestBFSTreeOfSubgraph(t *testing.T) {
	grid := Grid(3, 3)
	// Two opposite corners plus a shortcut edge joining them directly.
	id := grid.M()
	g := fromValid(9, append(slices.Clone(grid.EdgeList()), unit(0, 8)))
	var sub Induced
	tr := sub.Tree(g, []NodeID{0, 8}, 0)
	if len(tr.Members) != 2 || tr.Members[1] != 8 || tr.Parent[1] != 0 || tr.Depth[1] != 1 || tr.ParentEdge[1] != int32(id) {
		t.Fatalf("shortcut subtree wrong: %+v", tr)
	}
	// Without the shortcut edge the corners are separate.
	if tr2 := sub.Tree(grid, []NodeID{0, 8}, 0); len(tr2.Members) != 1 {
		t.Fatalf("unreachable member should not be in tree: members %v", tr2.Members)
	}
}

func TestUnionFind(t *testing.T) {
	uf := NewUnionFind(5)
	if uf.Count() != 5 {
		t.Fatal("initial count")
	}
	if !uf.Union(0, 1) || !uf.Union(1, 2) {
		t.Fatal("unions should succeed")
	}
	if uf.Union(0, 2) {
		t.Fatal("redundant union should fail")
	}
	if uf.Count() != 3 {
		t.Fatalf("count=%d, want 3", uf.Count())
	}
	if uf.Find(0) != uf.Find(2) || uf.Find(3) == uf.Find(4) && false {
		t.Fatal("find wrong")
	}
}

func TestMST(t *testing.T) {
	g := fromValid(4, []Edge{
		{U: 0, V: 1, Weight: 1}, {U: 1, V: 2, Weight: 2}, {U: 2, V: 3, Weight: 3},
		{U: 0, V: 3, Weight: 10}, {U: 0, V: 2, Weight: 10},
	})
	ids, total := MST(g)
	if len(ids) != 3 || total != 6 {
		t.Fatalf("MST edges=%d total=%d, want 3, 6", len(ids), total)
	}
}

func TestMSTOnDisconnected(t *testing.T) {
	g := fromValid(4, []Edge{{U: 0, V: 1, Weight: 2}, {U: 2, V: 3, Weight: 5}})
	ids, total := MST(g)
	if len(ids) != 2 || total != 7 {
		t.Fatalf("forest edges=%d total=%d", len(ids), total)
	}
}

func TestTreeFromEdgesAndPathInTree(t *testing.T) {
	g := Grid(3, 3)
	ids, _ := MST(g)
	tr := TreeFromEdges(g, ids, 4)
	if len(tr.Members) != 9 || tr.Members[0] != 4 {
		t.Fatalf("members=%v", tr.Members)
	}
	checkParents(t, g, tr)
	pos := make([]int32, g.N())
	tr.IndexInto(pos)
	p := PathInTree(tr, pos[0], pos[8])
	if len(p) < 2 || tr.Members[p[0]] != 0 || tr.Members[p[len(p)-1]] != 8 {
		t.Fatalf("path = %v", p)
	}
	for i := 0; i+1 < len(p); i++ {
		if tr.Parent[p[i]] != p[i+1] && tr.Parent[p[i+1]] != p[i] {
			t.Fatalf("path step %d-%d not a tree edge", p[i], p[i+1])
		}
	}
	if len(PathInTree(tr, pos[0], pos[0])) != 1 || len(PathInTree(tr, pos[3], pos[3])) != 1 {
		t.Fatal("trivial path wrong")
	}
}

func TestStandardFamilies(t *testing.T) {
	for _, f := range StandardFamilies() {
		g := f.Make(64)
		if g.N() < 16 {
			t.Fatalf("%s: too small (%d nodes)", f.Name, g.N())
		}
		if !IsConnected(g) {
			t.Fatalf("%s: disconnected", f.Name)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
	}
}

func TestIsqrtLog2(t *testing.T) {
	for n := 0; n <= 1000; n++ {
		s := isqrt(n)
		if s*s > n || (s+1)*(s+1) <= n {
			t.Fatalf("isqrt(%d)=%d", n, s)
		}
	}
	if log2ceil(1) != 0 || log2ceil(2) != 1 || log2ceil(3) != 2 || log2ceil(8) != 3 || log2ceil(9) != 4 {
		t.Fatal("log2ceil wrong")
	}
}

// Property: for any path length, BFS distance equals index; and in any
// random connected graph, BFS distances obey the triangle-ish invariant
// |d(u) - d(v)| <= 1 across every edge.
func TestBFSEdgeInvariantProperty(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		n := int(nn%50) + 2
		g := RandomConnected(n, n/2, 1, seed)
		res := BFS(g, 0)
		for _, e := range g.EdgeList() {
			du, dv := res.Dist[e.U], res.Dist[e.V]
			if du-dv > 1 || dv-du > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: MST total weight is invariant under edge insertion order
// (checked by comparing against a permuted copy of the same edge set).
func TestMSTWeightPermutationProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := RandomConnected(20, 15, 9, seed)
		_, w1 := MST(g)
		// Rebuild with reversed edge order.
		rev := slices.Clone(g.EdgeList())
		slices.Reverse(rev)
		_, w2 := MST(fromValid(g.N(), rev))
		return w1 == w2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: every spanning tree reported by BFSTree has all n nodes, each
// non-root one below a parent listed before it and joined to it by its
// parent edge.
func TestBFSTreeProperty(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		n := int(nn%40) + 2
		g := RandomConnected(n, n, 3, seed)
		tr := BFSTree(g, 0)
		if len(tr.Members) != n {
			return false
		}
		checkParents(t, g, tr)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
