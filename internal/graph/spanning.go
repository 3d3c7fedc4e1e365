package graph

import "sort"

// Tree is a rooted spanning tree (or spanning forest component) of a graph,
// stored as parent pointers in the host graph's node ID space. Nodes outside
// the tree have Parent == -1 and InTree == false.
type Tree struct {
	Root       NodeID
	Parent     []NodeID // -1 for root and non-members
	ParentEdge []EdgeID // host-graph edge to parent; -1 where Parent == -1
	Depth      []int    // hop depth from root; -1 for non-members
	Members    []NodeID // member nodes in BFS order from the root
}

// Height returns the maximum depth of any member.
func (t *Tree) Height() int {
	h := 0
	for _, v := range t.Members {
		if t.Depth[v] > h {
			h = t.Depth[v]
		}
	}
	return h
}

// Contains reports whether v is a member of the tree.
func (t *Tree) Contains(v NodeID) bool {
	return v >= 0 && v < len(t.Depth) && t.Depth[v] >= 0
}

// Children returns, for each node, the list of its tree children (indexed by
// host node ID). Computing this is linear in the number of members.
func (t *Tree) Children() [][]NodeID {
	ch := make([][]NodeID, len(t.Parent))
	for _, v := range t.Members {
		if p := t.Parent[v]; p != -1 {
			ch[p] = append(ch[p], v)
		}
	}
	return ch
}

// BFSTree returns the BFS spanning tree of root's component.
func BFSTree(g *Graph, root NodeID) *Tree {
	res := BFS(g, root)
	t := &Tree{
		Root:       root,
		Parent:     res.Parent,
		ParentEdge: res.ParentEdge,
		Depth:      res.Dist,
		Members:    res.Order,
	}
	return t
}

// BFSTreeOfSubgraph returns the BFS tree, rooted at root, of the subgraph of
// g induced by members, in host node IDs. Proposition 6 aggregates over
// G[P_i] ∪ H_i; callers pass P_i plus the endpoints of H_i, so the tree
// spans G[P_i ∪ V(H_i)], which contains every edge of H_i. A repeated
// member is listed once; a root outside members yields the tree {root}.
//
// The BFS visits half-edges in edge-first-seen order (see Induced), so the
// tree is bit-identical to the one the historical map-based builder
// produced. It costs O(k + Σ deg(members)) to build and search plus O(n)
// for the host-indexed Tree; loops over many parts should reuse one
// Induced and call its Tree method.
func BFSTreeOfSubgraph(g *Graph, members []NodeID, root NodeID) *Tree {
	var s Induced
	return s.Tree(g, members, root)
}

// UnionFind is a disjoint-set forest with union by rank and path halving.
type UnionFind struct {
	parent []int
	rank   []byte
	count  int
}

// NewUnionFind returns a union-find over n singleton sets.
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{
		parent: make([]int, n),
		rank:   make([]byte, n),
		count:  n,
	}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

// Find returns the representative of x's set.
func (uf *UnionFind) Find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

// Union merges the sets of x and y; it returns false if already joined.
func (uf *UnionFind) Union(x, y int) bool {
	rx, ry := uf.Find(x), uf.Find(y)
	if rx == ry {
		return false
	}
	if uf.rank[rx] < uf.rank[ry] {
		rx, ry = ry, rx
	}
	uf.parent[ry] = rx
	if uf.rank[rx] == uf.rank[ry] {
		uf.rank[rx]++
	}
	uf.count--
	return true
}

// Count returns the number of disjoint sets.
func (uf *UnionFind) Count() int { return uf.count }

// MST returns the edge IDs of a minimum spanning forest of g (Kruskal),
// breaking weight ties by edge ID for determinism, together with its total
// weight.
func MST(g *Graph) ([]EdgeID, int64) {
	ids := make([]EdgeID, g.M())
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool {
		ea, eb := g.Edge(ids[a]), g.Edge(ids[b])
		if ea.Weight != eb.Weight {
			return ea.Weight < eb.Weight
		}
		return ids[a] < ids[b]
	})
	uf := NewUnionFind(g.N())
	var picked []EdgeID
	var total int64
	for _, id := range ids {
		e := g.Edge(id)
		if uf.Union(e.U, e.V) {
			picked = append(picked, id)
			total += e.Weight
		}
	}
	return picked, total
}

// TreeFromEdges builds a rooted Tree from a set of forest edge IDs of g,
// rooted at root (only root's component becomes the tree).
func TreeFromEdges(g *Graph, edgeIDs []EdgeID, root NodeID) *Tree {
	adj := make(map[NodeID][]Half)
	for _, id := range edgeIDs {
		e := g.Edge(id)
		adj[e.U] = append(adj[e.U], Half{To: e.V, Edge: id})
		adj[e.V] = append(adj[e.V], Half{To: e.U, Edge: id})
	}
	n := g.N()
	t := &Tree{
		Root:       root,
		Parent:     make([]NodeID, n),
		ParentEdge: make([]EdgeID, n),
		Depth:      make([]int, n),
	}
	for i := 0; i < n; i++ {
		t.Parent[i] = -1
		t.ParentEdge[i] = -1
		t.Depth[i] = -1
	}
	t.Depth[root] = 0
	queue := []NodeID{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		t.Members = append(t.Members, v)
		for _, h := range adj[v] {
			if t.Depth[h.To] == -1 {
				t.Depth[h.To] = t.Depth[v] + 1
				t.Parent[h.To] = v
				t.ParentEdge[h.To] = h.Edge
				queue = append(queue, h.To)
			}
		}
	}
	return t
}

// PathInTree returns the node sequence from u up to the lowest common
// ancestor of u and v and down to v along tree t (inclusive of endpoints).
func PathInTree(t *Tree, u, v NodeID) []NodeID {
	if !t.Contains(u) || !t.Contains(v) {
		return nil
	}
	var up, down []NodeID
	a, b := u, v
	for t.Depth[a] > t.Depth[b] {
		up = append(up, a)
		a = t.Parent[a]
	}
	for t.Depth[b] > t.Depth[a] {
		down = append(down, b)
		b = t.Parent[b]
	}
	for a != b {
		up = append(up, a)
		down = append(down, b)
		a = t.Parent[a]
		b = t.Parent[b]
	}
	up = append(up, a) // LCA
	for i := len(down) - 1; i >= 0; i-- {
		up = append(up, down[i])
	}
	return up
}
