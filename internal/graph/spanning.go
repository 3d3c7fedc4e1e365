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

// PartTree is a rooted tree over some of a graph's nodes, stored member by
// member: Members lists them with the root first and every parent before
// its children (BFS order, for the trees this package builds), and Parent,
// ParentEdge and Depth are aligned with it. Its size is proportional to its
// members, not to the graph, so many part trees of one graph cost Σ members
// together; a whole-graph tree is a Tree and converts with Tree.Part.
type PartTree struct {
	Members    []NodeID
	Parent     []int32 // member index of each member's parent; -1 at the root
	ParentEdge []int32 // host-graph EdgeID to the parent; -1 at the root
	Depth      []int32 // hops from the root
}

// NewPartTree returns a part tree with room for k members, its three int32
// arrays sharing one allocation, each capped at its own length.
func NewPartTree(k int) *PartTree {
	block := make([]int32, 3*k)
	return &PartTree{
		Members:    make([]NodeID, k),
		Parent:     block[:k:k],
		ParentEdge: block[k : 2*k : 2*k],
		Depth:      block[2*k:],
	}
}

// Height returns the largest member depth.
func (t *PartTree) Height() int {
	h := int32(0)
	for _, d := range t.Depth {
		h = max(h, d)
	}
	return int(h)
}

// IndexInto records each member's index at its node: pos[Members[i]] = i.
// pos is host-sized; entries of non-members are left as they were.
func (t *PartTree) IndexInto(pos []int32) {
	for i, v := range t.Members {
		pos[v] = int32(i)
	}
}

// Part returns t in member-local form, with the same members in the same
// order and the same parents, parent edges and depths. It runs in one pass
// over t's host-sized arrays, so it suits whole-graph trees; t's Members
// must list every parent before its children, as every Tree this package
// builds does.
func (t *Tree) Part() *PartTree {
	pt := NewPartTree(len(t.Members))
	index := make([]int32, len(t.Parent))
	for i, v := range t.Members {
		index[v] = int32(i)
		pt.Members[i] = v
		pt.Depth[i] = int32(t.Depth[v])
		pt.Parent[i], pt.ParentEdge[i] = -1, -1
		if p := t.Parent[v]; p != -1 {
			pt.Parent[i], pt.ParentEdge[i] = index[p], int32(t.ParentEdge[v])
		}
	}
	return pt
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
