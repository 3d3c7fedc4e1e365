package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

// refTree is an independent, map-based reference for Induced.Tree, built
// host-indexed and compared in member-local form (BFSResult.Tree):
// induced edges are appended to a per-node adjacency in edge-first-seen
// order (member scan, then neighbour scan) and searched breadth-first.
func refTree(g *Graph, members []NodeID, root NodeID) *PartTree {
	in := make(map[NodeID]bool, len(members))
	for _, v := range members {
		in[v] = true
	}
	seen := make(map[EdgeID]bool)
	adj := make(map[NodeID][]Half)
	for _, v := range members {
		for _, h := range g.Neighbors(v) {
			if in[h.To] && !seen[h.Edge] {
				seen[h.Edge] = true
				e := g.Edge(h.Edge)
				adj[e.U] = append(adj[e.U], Half{To: e.V, Edge: h.Edge})
				adj[e.V] = append(adj[e.V], Half{To: e.U, Edge: h.Edge})
			}
		}
	}
	n := g.N()
	res := &BFSResult{Root: root, Parent: make([]NodeID, n), ParentEdge: make([]EdgeID, n), Dist: make([]int, n)}
	for i := 0; i < n; i++ {
		res.Parent[i], res.ParentEdge[i], res.Dist[i] = -1, -1, -1
	}
	res.Dist[root] = 0
	queue := []NodeID{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		res.Order = append(res.Order, v)
		for _, h := range adj[v] {
			if res.Dist[h.To] == -1 {
				res.Dist[h.To] = res.Dist[v] + 1
				res.Parent[h.To] = v
				res.ParentEdge[h.To] = h.Edge
				queue = append(queue, h.To)
			}
		}
	}
	return res.Tree()
}

// refConnected is the map-based depth-first connectivity check: every
// listed node, counted with multiplicity, must be reached from nodes[0].
func refConnected(g *Graph, nodes []NodeID) bool {
	if len(nodes) <= 1 {
		return true
	}
	in := make(map[NodeID]bool, len(nodes))
	for _, v := range nodes {
		in[v] = true
	}
	seen := map[NodeID]bool{nodes[0]: true}
	stack := []NodeID{nodes[0]}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, h := range g.Neighbors(v) {
			if in[h.To] && !seen[h.To] {
				seen[h.To] = true
				stack = append(stack, h.To)
			}
		}
	}
	return len(seen) == len(nodes)
}

// randomMultigraph returns a graph on 1..maxN nodes with up to 3n random
// edges, parallel edges included.
func randomMultigraph(rng *rand.Rand, maxN int) *Graph {
	n := 1 + rng.Intn(maxN)
	var edges []Edge
	if n < 2 {
		return fromValid(n, edges)
	}
	for i := rng.Intn(3*n + 1); i > 0; i-- {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			edges = append(edges, Edge{U: u, V: v, Weight: 1 + rng.Int63n(4)})
		}
	}
	return fromValid(n, edges)
}

// randomMembers returns a random nonempty node subset of g in random
// order, sometimes with a repeated node.
func randomMembers(rng *rand.Rand, g *Graph) []NodeID {
	members := rng.Perm(g.N())[:1+rng.Intn(g.N())]
	if rng.Intn(8) == 0 {
		members = append(members, members[rng.Intn(len(members))])
	}
	return members
}

// checkKernel compares the kernel-based functions, both fresh and through
// the reused kernel sub, against the map-based references.
func checkKernel(t *testing.T, sub *Induced, g *Graph, members []NodeID, root NodeID) {
	t.Helper()
	want := refTree(g, members, root)
	if got := new(Induced).Tree(g, members, root); !reflect.DeepEqual(got, want) {
		t.Fatalf("fresh Tree(n=%d, %v, %d) = %+v, want %+v", g.N(), members, root, got, want)
	}
	if got := sub.Tree(g, members, root); !reflect.DeepEqual(got, want) {
		t.Fatalf("reused Tree(n=%d, %v, %d) = %+v, want %+v", g.N(), members, root, got, want)
	}
	if got, want := new(Induced).Connected(g, members), refConnected(g, members); got != want {
		t.Fatalf("fresh Connected(n=%d, %v) = %v, want %v", g.N(), members, got, want)
	}
	if got, want := sub.Connected(g, members), refConnected(g, members); got != want {
		t.Fatalf("reused Connected(n=%d, %v) = %v, want %v", g.N(), members, got, want)
	}
}

// Property: on random multigraphs and random member orders the kernel
// reproduces the edge-first-seen reference exactly — trees (visit order,
// parents, parent edges, depths) and connectivity —
// whether the kernel is fresh or reused across graphs of varying n.
func TestInducedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var sub Induced
	for iter := 0; iter < 400; iter++ {
		g := randomMultigraph(rng, 30)
		members := randomMembers(rng, g)
		checkKernel(t, &sub, g, members, members[rng.Intn(len(members))])
	}
}

func TestInducedEdgeCases(t *testing.T) {
	g := Path(4) // 0-1-2-3
	var sub Induced

	// A repeated member: the set is not connected as listed, and the tree
	// lists the node once.
	dup := []NodeID{1, 2, 1}
	if sub.Connected(g, dup) {
		t.Fatal("a repeated member must make Connected false")
	}
	if tr := sub.Tree(g, dup, 1); !reflect.DeepEqual(tr.Members, []NodeID{1, 2}) {
		t.Fatalf("tree over a repeated member lists %v, want [1 2]", tr.Members)
	}
	checkKernel(t, &sub, g, dup, 2)

	// A root outside the members: the tree is just {root}.
	tr := sub.Tree(g, []NodeID{0, 1}, 3)
	want := &PartTree{Members: []NodeID{3}, Parent: []int32{-1}, ParentEdge: []int32{-1}, Depth: []int32{0}}
	if !reflect.DeepEqual(tr, want) {
		t.Fatalf("outside root: %+v, want %+v", tr, want)
	}
	checkKernel(t, &sub, g, []NodeID{0, 1}, 3)

	// One kernel reused across graphs of different n: a large graph, a
	// smaller one, then a larger one again.
	for _, h := range []*Graph{Grid(6, 6), Path(3), Grid(9, 9), Cycle(5)} {
		all := make([]NodeID, h.N())
		for i := range all {
			all[i] = h.N() - 1 - i
		}
		checkKernel(t, &sub, h, all, all[0])
		checkKernel(t, &sub, h, all[h.N()/2:], all[h.N()-1])
	}
}

// BenchmarkInducedTree measures one part's BFS tree on a host graph 64
// times the part's size: a 16×16 block of a 128×128 grid, through a fresh
// kernel (whose host-to-local index is the one O(n) cost) and through one
// reused kernel, which costs only the part.
func BenchmarkInducedTree(b *testing.B) {
	g := Grid(128, 128)
	var part []NodeID
	for r := 0; r < 16; r++ {
		for c := 0; c < 16; c++ {
			part = append(part, GridID(128, r, c))
		}
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchTree = new(Induced).Tree(g, part, part[0])
		}
	})
	b.Run("reused", func(b *testing.B) {
		var sub Induced
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchTree = sub.Tree(g, part, part[0])
		}
	})
}

var benchTree *PartTree
