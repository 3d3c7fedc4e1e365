package graph

import "slices"

// Induced is a reusable kernel for induced subgraphs. Build lays G[members]
// out once as a CSR over local indices 0..k−1 in O(k + Σ deg(members)) (on
// a layered graph, O(k + Σ layer deg) plus O(p) per member that shares
// its base node with another member), and
// Sweep runs breadth-first searches on that layout, so a search costs
// O(k + |E(members)|) and never touches an array the size of the host
// graph.
//
// Local index i is the i-th distinct member in first-occurrence order (a
// repeated member is ignored). Each node's half-edges are listed in
// edge-first-seen order: the edge joining local nodes i < j is first seen
// while scanning member i, and edges are ranked by (i, position in i's
// adjacency list). A sweep therefore visits nodes and resolves parent ties
// exactly as a BFS over the induced edges appended in that order would, so
// every tree, depth and visit order it yields is bit-identical to that
// construction.
//
// The zero value is ready to use. The only host-indexed buffers are the
// host-to-local index and, for a layered graph, a member count per base
// node, allocated once per Induced (regrown for a larger graph) and all
// zero again when Build returns. Every other buffer is
// part-sized and reused: a sweep allocates nothing, and neither does a
// rebuild for a part with no more nodes and edges than an earlier one. An
// Induced is not safe for concurrent use; keep one per call that loops over
// parts, never one per package.
type Induced struct {
	local  []int32  // host node → local index + 1, 0 outside; all 0 between builds
	copies []int32  // layered graph: base node → member copies; all 0 between builds
	nodes  []NodeID // local index → host node
	start  []int32  // node i's half-edges are start[i] .. start[i+1]-1
	to     []int32  // half-edge → local neighbour
	edge   []int32  // half-edge → host EdgeID
	depth  []int32  // last sweep: hop depth from the root, -1 unreached
	parent []int32  // last sweep: local parent, -1 for the root and unreached
	pedge  []int32  // last sweep: host edge to the parent
	order  []int32  // last sweep: reached nodes in visit order
	index  []int32  // Tree: local node → member index
}

// fit returns b resized to n elements, reusing its storage when it can.
func fit(b []int32, n int) []int32 { return slices.Grow(b[:0], n)[:n] }

// Build lays out the subgraph of g induced by members, which must be nodes
// of g, and returns its node count k.
func (s *Induced) Build(g *Graph, members []NodeID) int {
	if len(s.local) < g.n {
		s.local = make([]int32, g.n)
	}
	cl := &g.cl
	if cl.pair != nil && len(s.copies) < cl.width {
		s.copies = make([]int32, cl.width)
	}
	adj, local, copies := g.stored(), s.local, s.copies
	nodes := s.nodes[:0]
	for _, v := range members {
		if local[v] == 0 {
			nodes = append(nodes, v)
			local[v] = int32(len(nodes))
			if cl.pair != nil {
				copies[v%cl.width]++
			}
		}
	}
	s.nodes = nodes
	k := len(nodes)
	start := fit(s.start, k+1)
	start[0] = 0
	for i, v := range nodes {
		d := start[i]
		for _, h := range adj[v] {
			if local[h.To] != 0 {
				d++
			}
		}
		if cl.pair != nil {
			d += copies[v%cl.width] - 1 // a clique edge to every other member copy
		}
		start[i+1] = d
	}
	s.start = start
	s.to = fit(s.to, int(start[k]))
	s.edge = fit(s.edge, int(start[k]))
	s.depth = fit(s.depth, k)
	s.parent = fit(s.parent, k)
	s.pedge = fit(s.pedge, k)
	s.order = fit(s.order, k)
	// Fill in edge-first-seen order; parent serves as the per-node fill
	// cursor until the first Sweep overwrites it. A node's clique edges
	// follow its stored ones, its sibling copies in ascending layer, and
	// only a base node with two member copies has any.
	next := s.parent
	copy(next, start[:k])
	add := func(i, j int32, id EdgeID) {
		s.to[next[i]], s.edge[next[i]] = j, int32(id)
		next[i]++
		s.to[next[j]], s.edge[next[j]] = i, int32(id)
		next[j]++
	}
	for i, v := range nodes {
		for _, h := range adj[v] {
			// j ≤ i: outside the part (-1), or seen while scanning j.
			if j := local[h.To] - 1; j > int32(i) {
				add(int32(i), j, h.Edge)
			}
		}
		if cl.pair == nil || copies[v%cl.width] < 2 {
			continue
		}
		b, layer := v%cl.width, v/cl.width
		for l, w := 0, b; l < cl.copies; l, w = l+1, w+cl.width {
			if j := local[w] - 1; j > int32(i) {
				add(int32(i), j, cl.id(b, layer, l))
			}
		}
	}
	for _, v := range nodes {
		local[v] = 0
		if cl.pair != nil {
			copies[v%cl.width] = 0
		}
	}
	return k
}

// Sweep runs a BFS of the last-built subgraph from local node root. It
// returns how many nodes it reached, the largest depth ecc, and far, the
// first node visited at depth ecc.
func (s *Induced) Sweep(root int) (reached, ecc, far int) {
	depth, parent, pedge, order := s.depth, s.parent, s.pedge, s.order
	for i := range depth {
		depth[i] = -1
	}
	depth[root], parent[root], pedge[root] = 0, -1, -1
	order[0] = int32(root)
	reached, far = 1, root
	for head := 0; head < reached; head++ {
		v := order[head]
		d := depth[v] + 1
		for h := s.start[v]; h < s.start[v+1]; h++ {
			w := s.to[h]
			if depth[w] >= 0 {
				continue
			}
			depth[w], parent[w], pedge[w] = d, v, s.edge[h]
			order[reached] = w
			reached++
			if int(d) > ecc {
				ecc, far = int(d), int(w)
			}
		}
	}
	return reached, ecc, far
}

// Depth returns local node i's hop depth in the last sweep, -1 when that
// sweep did not reach it.
func (s *Induced) Depth(i int) int { return int(s.depth[i]) }

// Tree returns the BFS tree, rooted at root, of the subgraph of g induced
// by members, in member-local form: Members in visit order, each parent as
// a member index. Proposition 6 aggregates over G[P_i] ∪ H_i; callers pass
// P_i plus the endpoints of H_i, so the tree spans G[P_i ∪ V(H_i)], which
// contains every edge of H_i. A repeated member is listed once; a root
// outside members yields the tree {root}. The tree costs O(k) beyond the
// search, and nothing the size of the host graph.
func (s *Induced) Tree(g *Graph, members []NodeID, root NodeID) *PartTree {
	s.Build(g, members)
	r := slices.Index(s.nodes, root)
	if r < 0 {
		t := NewPartTree(1)
		t.Members[0], t.Parent[0], t.ParentEdge[0] = root, -1, -1
		return t
	}
	reached, _, _ := s.Sweep(r)
	t := NewPartTree(reached)
	// index maps a local node to its member index; a parent is visited,
	// and so indexed, before its children.
	index := fit(s.index, len(s.nodes))
	s.index = index
	for i, l := range s.order[:reached] {
		index[l] = int32(i)
		t.Members[i] = s.nodes[l]
		t.Depth[i] = s.depth[l]
		t.Parent[i], t.ParentEdge[i] = -1, -1
		if p := s.parent[l]; p >= 0 {
			t.Parent[i], t.ParentEdge[i] = index[p], s.pedge[l]
		}
	}
	return t
}

// Connected reports whether the subgraph of g induced by nodes is
// connected (vacuously true for |nodes| <= 1; false when a node repeats).
func (s *Induced) Connected(g *Graph, nodes []NodeID) bool {
	if len(nodes) <= 1 {
		return true
	}
	s.Build(g, nodes)
	reached, _, _ := s.Sweep(0)
	return reached == len(nodes)
}
