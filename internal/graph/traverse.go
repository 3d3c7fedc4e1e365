package graph

import "slices"

// BFSResult holds the outcome of a breadth-first search from a root:
// hop distances, BFS-tree parents and the parent edge used, in visit order.
type BFSResult struct {
	Root       NodeID
	Dist       []int    // hop distance from Root; -1 if unreachable
	Parent     []NodeID // BFS-tree parent; -1 for Root and unreachable nodes
	ParentEdge []EdgeID // edge to parent; -1 where Parent is -1
	Order      []NodeID // visited nodes in BFS order (Root first)
}

// BFS runs a breadth-first search over hop distances (ignoring weights, as
// the paper's hop-diameter does).
func BFS(g *Graph, root NodeID) *BFSResult {
	n := g.N()
	res := &BFSResult{
		Root:       root,
		Dist:       make([]int, n),
		Parent:     make([]NodeID, n),
		ParentEdge: make([]EdgeID, n),
		Order:      make([]NodeID, 0, n),
	}
	for i := range res.Dist {
		res.Dist[i] = -1
		res.Parent[i] = -1
		res.ParentEdge[i] = -1
	}
	res.Dist[root] = 0
	queue := []NodeID{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		res.Order = append(res.Order, v)
		for _, h := range g.Neighbors(v) {
			if res.Dist[h.To] == -1 {
				res.Dist[h.To] = res.Dist[v] + 1
				res.Parent[h.To] = v
				res.ParentEdge[h.To] = h.Edge
				queue = append(queue, h.To)
			}
		}
	}
	return res
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
	first := BFS(g, 0)
	u := 0
	for v, d := range first.Dist {
		if d > first.Dist[u] {
			u = v
		}
	}
	second := BFS(g, u)
	w := u
	for v, d := range second.Dist {
		if d > second.Dist[w] {
			w = v
		}
	}
	v := w
	for i := 0; i < second.Dist[w]/2; i++ {
		v = second.Parent[v]
	}
	return v
}
