package graph

import "sort"

// BFSTree returns the BFS tree of root's component.
func BFSTree(g *Graph, root NodeID) *PartTree { return BFS(g, root).Tree() }

// PartTree is a rooted tree over some of a graph's nodes, stored member by
// member: Members lists them with the root first and every parent before
// its children (BFS order, for the trees this package builds), and Parent,
// ParentEdge and Depth are aligned with it. Its size is proportional to its
// members, not to the graph, so many part trees of one graph cost Σ members
// together. It is the one tree type: whole-graph trees (BFS, MST,
// low-stretch) and part trees alike.
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

// IndexInto records each member's index at its node: pos[Members[i]] = i.
// pos is host-sized; entries of non-members are left as they were.
func (t *PartTree) IndexInto(pos []int32) {
	for i, v := range t.Members {
		pos[v] = int32(i)
	}
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

// TreeFromEdges returns the BFS tree, rooted at root, of the forest of g
// with the given edge IDs (only root's component becomes the tree).
func TreeFromEdges(g *Graph, edgeIDs []EdgeID, root NodeID) *PartTree {
	adj := make([][]Half, g.n)
	for _, id := range edgeIDs {
		e := g.Edge(id)
		adj[e.U] = append(adj[e.U], Half{To: e.V, Edge: id})
		adj[e.V] = append(adj[e.V], Half{To: e.U, Edge: id})
	}
	return bfs(new(BFSResult), adj, &cliques{}, root).Tree()
}

// PathInTree returns the member indices on the path along t from member i
// up to the lowest common ancestor of i and j and down to member j,
// endpoints included.
func PathInTree(t *PartTree, i, j int32) []int32 {
	var up, down []int32
	for t.Depth[i] > t.Depth[j] {
		up = append(up, i)
		i = t.Parent[i]
	}
	for t.Depth[j] > t.Depth[i] {
		down = append(down, j)
		j = t.Parent[j]
	}
	for i != j {
		up = append(up, i)
		down = append(down, j)
		i, j = t.Parent[i], t.Parent[j]
	}
	up = append(up, i) // LCA
	for k := len(down) - 1; k >= 0; k-- {
		up = append(up, down[k])
	}
	return up
}
