package graph

import "slices"

// BFSResult holds the outcome of a breadth-first search from a root,
// indexed by node for distance queries: hop distances, BFS-tree parents
// and the parent edge used, and the visit order. Tree converts it to the
// search's tree.
type BFSResult struct {
	Root       NodeID
	Dist       []int    // hop distance from Root; -1 if unreachable
	Parent     []NodeID // BFS-tree parent; -1 for Root and unreachable nodes
	ParentEdge []EdgeID // edge to parent; -1 where Parent is -1
	Order      []NodeID // visited nodes in BFS order (Root first)
}

// BFS runs a breadth-first search over hop distances (ignoring weights, as
// the paper's hop-diameter does).
func BFS(g *Graph, root NodeID) *BFSResult { return bfs(new(BFSResult), g.stored(), &g.cl, root) }

// bfs searches the adjacency adj, whose length is the node count, plus the
// clique edges cl (none when cl.pair is nil), into res, reusing its arrays
// when they have n entries, and returns res. A node's clique half-edges
// follow its stored ones, its siblings in ascending layer. Once one copy
// of a base node is scanned every copy is discovered, so a later copy's
// clique scan would discover nothing and is skipped: the search visits,
// orders and parents nodes exactly as one over the laid-out cliques.
func bfs(res *BFSResult, adj [][]Half, cl *cliques, root NodeID) *BFSResult {
	n := len(adj)
	if len(res.Dist) != n {
		res.Dist, res.Parent, res.ParentEdge = make([]int, n), make([]NodeID, n), make([]EdgeID, n)
		res.Order = make([]NodeID, 0, n)
	}
	res.Root, res.Order = root, res.Order[:0]
	for i := range res.Dist {
		res.Dist[i] = -1
		res.Parent[i] = -1
		res.ParentEdge[i] = -1
	}
	var scanned []bool // per base node: its clique was scanned
	if cl.pair != nil {
		scanned = make([]bool, cl.width)
	}
	res.Dist[root] = 0
	// Order is the FIFO queue: a node joins it when discovered, and the
	// scan pops by index, so no queue is kept beside it.
	res.Order = append(res.Order, root)
	for i := 0; i < len(res.Order); i++ {
		v := res.Order[i]
		for _, h := range adj[v] {
			if res.Dist[h.To] == -1 {
				res.Dist[h.To] = res.Dist[v] + 1
				res.Parent[h.To] = v
				res.ParentEdge[h.To] = h.Edge
				res.Order = append(res.Order, h.To)
			}
		}
		if scanned == nil {
			continue
		}
		b, layer := v%cl.width, v/cl.width
		if scanned[b] {
			continue
		}
		scanned[b] = true
		for l, w := 0, b; l < cl.copies; l, w = l+1, w+cl.width {
			if w != v && res.Dist[w] == -1 {
				res.Dist[w] = res.Dist[v] + 1
				res.Parent[w] = v
				res.ParentEdge[w] = cl.id(b, layer, l)
				res.Order = append(res.Order, w)
			}
		}
	}
	return res
}

// Tree returns the search's tree over the nodes it reached in member-local
// form: Members in visit order, each parent as a member index, and the
// same parent edges and depths. r.Order must list every parent before its
// children, as both graph.BFS and the distributed BFS of the CONGEST
// engine do.
func (r *BFSResult) Tree() *PartTree {
	t := NewPartTree(len(r.Order))
	index := make([]int32, len(r.Parent))
	for i, v := range r.Order {
		index[v] = int32(i)
		t.Members[i] = v
		t.Depth[i] = int32(r.Dist[v])
		t.Parent[i], t.ParentEdge[i] = -1, -1
		if p := r.Parent[v]; p != -1 {
			t.Parent[i], t.ParentEdge[i] = index[p], int32(r.ParentEdge[v])
		}
	}
	return t
}

// Eccentricity returns the maximum finite BFS distance from root, or -1 if
// the graph is disconnected from root's component point of view (some node
// unreachable).
func Eccentricity(g *Graph, root NodeID) int {
	res := BFS(g, root)
	ecc := 0
	for _, d := range res.Dist {
		if d == -1 {
			return -1
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Diameter returns the exact hop-diameter of g by running a BFS from every
// node. It returns -1 for disconnected or empty graphs. Use
// DiameterApprox for large graphs.
func Diameter(g *Graph) int {
	if g.N() == 0 {
		return -1
	}
	diam := 0
	for v := 0; v < g.N(); v++ {
		ecc := Eccentricity(g, v)
		if ecc == -1 {
			return -1
		}
		if ecc > diam {
			diam = ecc
		}
	}
	return diam
}

// DiameterApprox returns a lower bound on the hop-diameter within a factor
// of 2 via the standard double-sweep heuristic (exact on trees), or -1 for
// disconnected or empty graphs.
func DiameterApprox(g *Graph) int {
	if g.N() == 0 {
		return -1
	}
	first := BFS(g, 0)
	far, best := 0, -1
	for v, d := range first.Dist {
		if d == -1 {
			return -1
		}
		if d > best {
			best, far = d, v
		}
	}
	return Eccentricity(g, far)
}

// Components returns the connected components of g, each as a sorted list
// of node IDs, ordered by smallest contained node.
func Components(g *Graph) [][]NodeID {
	n := g.N()
	seen := make([]bool, n)
	var comps [][]NodeID
	for s := 0; s < n; s++ {
		if seen[s] {
			continue
		}
		var comp []NodeID
		stack := []NodeID{s}
		seen[s] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, v)
			for _, h := range g.Neighbors(v) {
				if !seen[h.To] {
					seen[h.To] = true
					stack = append(stack, h.To)
				}
			}
		}
		slices.Sort(comp)
		comps = append(comps, comp)
	}
	return comps
}

// IsConnected reports whether g is connected (true for the empty graph's
// vacuous case only when n <= 1).
func IsConnected(g *Graph) bool {
	if g.N() <= 1 {
		return true
	}
	return len(BFS(g, 0).Order) == g.N()
}

// ApproxCenter returns a low-eccentricity node via a double sweep: BFS from
// node 0, then from the farthest node found, returning the midpoint of the
// resulting longest path. Exact on trees; a 2-approximation in general.
func ApproxCenter(g *Graph) NodeID {
	if g.N() == 0 {
		return 0
	}
	return approxCenter(g, new(BFSResult))
}

// CenterTree returns the BFS tree from ApproxCenter(g), the tree of its
// root's component, its three searches sharing one result's arrays. g
// must have a node.
func CenterTree(g *Graph) *PartTree {
	var res BFSResult
	return bfs(&res, g.stored(), &g.cl, approxCenter(g, &res)).Tree()
}

// approxCenter is ApproxCenter on a graph with a node, searching into res.
func approxCenter(g *Graph, res *BFSResult) NodeID {
	adj := g.stored()
	u := farthest(bfs(res, adj, &g.cl, 0).Dist, 0)
	w := farthest(bfs(res, adj, &g.cl, u).Dist, u)
	v := w
	for i := 0; i < res.Dist[w]/2; i++ {
		v = res.Parent[v]
	}
	return v
}

// farthest returns the first node of the largest distance in dist, or from
// when no node lies farther than it.
func farthest(dist []int, from NodeID) NodeID {
	for v, d := range dist {
		if d > dist[from] {
			from = v
		}
	}
	return from
}
