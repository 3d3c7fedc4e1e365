package graph

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	g := New(5)
	if g.N() != 5 || g.M() != 0 {
		t.Fatalf("got n=%d m=%d, want 5, 0", g.N(), g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New(3)
	tests := []struct {
		name    string
		u, v    NodeID
		w       int64
		wantErr error
	}{
		{name: "out of range u", u: -1, v: 0, w: 1, wantErr: ErrNodeRange},
		{name: "out of range v", u: 0, v: 3, w: 1, wantErr: ErrNodeRange},
		{name: "self loop", u: 1, v: 1, w: 1, wantErr: ErrSelfLoop},
		{name: "zero weight", u: 0, v: 1, w: 0, wantErr: ErrBadWeight},
		{name: "negative weight", u: 0, v: 1, w: -2, wantErr: ErrBadWeight},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := g.AddEdge(tt.u, tt.v, tt.w); !errors.Is(err, tt.wantErr) {
				t.Fatalf("AddEdge(%d,%d,%d) err=%v, want %v", tt.u, tt.v, tt.w, err, tt.wantErr)
			}
			// FromEdges rejects the same edge, after a valid one, the same way.
			if _, err := FromEdges(3, []Edge{{U: 0, V: 2, Weight: 1}, {U: tt.u, V: tt.v, Weight: tt.w}}); !errors.Is(err, tt.wantErr) {
				t.Fatalf("FromEdges with {%d,%d,%d}: err=%v, want %v", tt.u, tt.v, tt.w, err, tt.wantErr)
			}
		})
	}
	if g.M() != 0 {
		t.Fatalf("failed AddEdge mutated graph: m=%d", g.M())
	}
}

func TestAddEdgeAndAccessors(t *testing.T) {
	g := New(4)
	id, err := g.AddEdge(0, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if e := g.Edge(id); e.U != 0 || e.V != 1 || e.Weight != 5 {
		t.Fatalf("edge = %+v", e)
	}
	g.MustAddEdge(1, 2, 3)
	g.MustAddEdge(1, 2, 7) // parallel edge allowed
	if g.Degree(1) != 3 {
		t.Fatalf("degree(1)=%d, want 3", g.Degree(1))
	}
	if !g.HasEdgeBetween(1, 2) || g.HasEdgeBetween(0, 3) {
		t.Fatal("HasEdgeBetween wrong")
	}
	if g.Other(id, 0) != 1 || g.Other(id, 1) != 0 {
		t.Fatal("Other wrong")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := Path(4)
	c := g.Clone()
	c.MustAddEdge(0, 3, 1)
	if g.M() != 3 || c.M() != 4 {
		t.Fatalf("clone not deep: g.M()=%d c.M()=%d", g.M(), c.M())
	}
}

// Property: FromEdges builds exactly the graph sequential AddEdge calls
// build, on random multigraphs with parallel edges, and an AddEdge after
// FromEdges moves only the two nodes it touches.
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
		seq := New(n)
		for _, e := range edges {
			seq.MustAddEdge(e.U, e.V, e.Weight)
		}
		g, err := FromEdges(n, slices.Clone(edges))
		if err != nil {
			t.Log(err)
			return false
		}
		same := func(a, b *Graph) bool {
			if a.N() != b.N() || !slices.Equal(a.EdgeList(), b.EdgeList()) {
				return false
			}
			for v := 0; v < a.N(); v++ {
				if a.Degree(v) != b.Degree(v) || !slices.Equal(a.Neighbors(v), b.Neighbors(v)) {
					return false
				}
			}
			return a.Validate() == nil && b.Validate() == nil
		}
		if !same(g, seq) || !same(g.Clone(), seq) {
			return false
		}
		before := make([][]Half, n)
		for v := range before {
			before[v] = slices.Clone(g.Neighbors(v))
		}
		u, v := rng.Intn(n), (rng.Intn(n-1)+1)%n
		if u == v {
			v = (u + 1) % n
		}
		g.MustAddEdge(u, v, 1)
		seq.MustAddEdge(u, v, 1)
		for x := range before {
			if x != u && x != v && !slices.Equal(g.Neighbors(x), before[x]) {
				return false
			}
		}
		return same(g, seq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAddNode(t *testing.T) {
	g := New(1)
	v := g.AddNode()
	if v != 1 || g.N() != 2 {
		t.Fatalf("AddNode = %d, n = %d", v, g.N())
	}
	g.MustAddEdge(0, 1, 1)
	if err := g.Validate(); err != nil {
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
	ae, be := a.Edges(), b.Edges()
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
		{name: "single", g: New(1), want: 0},
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
	g := New(3) // disconnected
	if Diameter(g) != -1 || DiameterApprox(g) != -1 {
		t.Fatal("disconnected diameter should be -1")
	}
}

func TestComponents(t *testing.T) {
	g := New(6)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(2, 3, 1)
	g.MustAddEdge(3, 4, 1)
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
	if h := tr.Part().Height(); h != 6 {
		t.Fatalf("height=%d, want 6", h)
	}
	if len(tr.Members) != 16 {
		t.Fatalf("members=%d", len(tr.Members))
	}
	ch := tr.Children()
	total := 0
	for _, c := range ch {
		total += len(c)
	}
	if total != 15 {
		t.Fatalf("child-edges=%d, want 15", total)
	}
	for _, v := range tr.Members {
		if v != tr.Root && tr.Depth[v] != tr.Depth[tr.Parent[v]]+1 {
			t.Fatalf("depth invariant broken at %d", v)
		}
	}
}

func TestBFSTreeOfSubgraph(t *testing.T) {
	g := Grid(3, 3)
	// Two opposite corners plus a shortcut edge joining them directly.
	id := g.MustAddEdge(0, 8, 1)
	var sub Induced
	tr := sub.Tree(g, []NodeID{0, 8}, 0)
	if len(tr.Members) != 2 || tr.Members[1] != 8 || tr.Parent[1] != 0 || tr.Depth[1] != 1 || tr.ParentEdge[1] != int32(id) {
		t.Fatalf("shortcut subtree wrong: %+v", tr)
	}
	// Without the shortcut edge the corners are separate (fresh grid, since
	// g itself was augmented above).
	if tr2 := sub.Tree(Grid(3, 3), []NodeID{0, 8}, 0); len(tr2.Members) != 1 {
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
	g := New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 2)
	g.MustAddEdge(2, 3, 3)
	g.MustAddEdge(0, 3, 10)
	g.MustAddEdge(0, 2, 10)
	ids, total := MST(g)
	if len(ids) != 3 || total != 6 {
		t.Fatalf("MST edges=%d total=%d, want 3, 6", len(ids), total)
	}
}

func TestMSTOnDisconnected(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1, 2)
	g.MustAddEdge(2, 3, 5)
	ids, total := MST(g)
	if len(ids) != 2 || total != 7 {
		t.Fatalf("forest edges=%d total=%d", len(ids), total)
	}
}

func TestTreeFromEdgesAndPathInTree(t *testing.T) {
	g := Grid(3, 3)
	ids, _ := MST(g)
	tr := TreeFromEdges(g, ids, 4)
	if len(tr.Members) != 9 {
		t.Fatalf("members=%d", len(tr.Members))
	}
	p := PathInTree(tr, 0, 8)
	if len(p) < 2 || p[0] != 0 || p[len(p)-1] != 8 {
		t.Fatalf("path = %v", p)
	}
	for i := 0; i+1 < len(p); i++ {
		if tr.Parent[p[i]] != p[i+1] && tr.Parent[p[i+1]] != p[i] {
			t.Fatalf("path step %d-%d not a tree edge", p[i], p[i+1])
		}
	}
	if PathInTree(tr, 0, 0) == nil || len(PathInTree(tr, 3, 3)) != 1 {
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
		for _, e := range g.Edges() {
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
		h := New(g.N())
		es := g.Edges()
		for i := len(es) - 1; i >= 0; i-- {
			h.MustAddEdge(es[i].U, es[i].V, es[i].Weight)
		}
		_, w2 := MST(h)
		return w1 == w2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: every spanning tree reported by BFSTree has exactly n-1
// parent edges and depths consistent with parents.
func TestBFSTreeProperty(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		n := int(nn%40) + 2
		g := RandomConnected(n, n, 3, seed)
		tr := BFSTree(g, 0)
		if len(tr.Members) != n {
			return false
		}
		cnt := 0
		for v := 0; v < n; v++ {
			if tr.Parent[v] != -1 {
				cnt++
				if tr.Depth[v] != tr.Depth[tr.Parent[v]]+1 {
					return false
				}
			}
		}
		return cnt == n-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
