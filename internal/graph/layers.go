package graph

// cliques are the implicit clique edges of a layered graph (Layers). Node
// l·width + v is the copy of base node v in layer l < copies, and the
// copies of each base node form a clique of weight-1 edges. The clique
// edges follow the stored layer edges, base node by base node, each
// node's pairs (i, j), i < j, in lexicographic order; pair[q] is pair q's
// edge on base node 0, and base node v's is that edge shifted by v. adj
// holds each copy's layer half-edges, which the graph's own adj, nil on a
// layered graph, does not. A graph without cliques has a nil pair table.
type cliques struct {
	first  EdgeID // the first clique edge's ID, the layer edge count
	width  int    // base nodes per layer
	copies int    // layers, at least 2
	pair   []Edge
	adj    [][]Half
}

// edge returns clique edge r, the one with EdgeID first + r: pair
// r mod |pair| shifted to base node r / |pair|.
func (c *cliques) edge(r int) Edge {
	e := c.pair[r%len(c.pair)]
	v := r / len(c.pair)
	e.U += v
	e.V += v
	return e
}

// id returns the EdgeID of the clique edge joining base node v's copies in
// layers a ≠ b.
func (c *cliques) id(v, a, b int) EdgeID {
	if a > b {
		a, b = b, a
	}
	return c.first + v*len(c.pair) + a*(2*c.copies-a-1)/2 + b - a - 1
}

// Layers returns the p-layered graph Ĝ_p of base (paper §3.1.1, Figure
// 2), p ≥ 1: p disjoint copies of base plus a p-clique of weight-1 edges
// on the copies of each base node. The copy of base node v in layer l is
// node l·n + v. Edge IDs are positional: layer l's copy of base edge e is
// l·m + e, with e's weight, and the n·p(p−1)/2 clique edges follow all
// layer edges, base node by base node, each node's pairs of layers (i, j),
// i < j, in lexicographic order. Each copy's half-edges list its layer
// edges and then its siblings in ascending layer: ascending EdgeID, as in
// any graph.
//
// Only the p·m layer edges are stored. Edge, M, Degree, HasEdgeBetween,
// BFS and Induced compute the clique edges from their IDs, so a search over
// Ĝ_p scans each base node's clique once, from the first copy it reaches,
// and costs O(n·p + p·m). Neighbors and EdgeList lay the cliques out on
// first use. Like p < 1, a Ĝ_p too large to index (ErrTooLarge) panics.
func Layers(base *Graph, p int) *Graph {
	if p < 1 {
		panic("graph: Layers needs p >= 1")
	}
	n, m := base.N(), base.M()
	if err := checkSize(n*p, p*m+n*(p*(p-1)/2)); err != nil {
		panic(err)
	}
	// One block holds the layer edges and the clique pair table.
	block := make([]Edge, p*m+p*(p-1)/2)
	edges, pair := block[:p*m:p*m], block[p*m:]
	for l := 0; l < p; l++ {
		for e, be := range base.EdgeList() {
			edges[l*m+e] = Edge{U: l*n + be.U, V: l*n + be.V, Weight: be.Weight}
		}
	}
	q := 0
	for i := 0; i < p; i++ {
		for j := i + 1; j < p; j++ {
			pair[q] = Edge{U: i * n, V: j * n, Weight: 1}
			q++
		}
	}
	g := build(n*p, edges)
	if p > 1 {
		g.m += n * len(pair)
		g.cl = cliques{first: len(edges), width: n, copies: p, pair: pair, adj: g.adj}
		g.adj = nil
	}
	return g
}

// laidOut returns g's cliques laid out, building the layout on the first
// call. Concurrent first calls may each build one; the first stored wins
// and every caller returns it, so a shared graph is laid out once.
func (g *Graph) laidOut() *layout {
	if l := g.full.Load(); l != nil {
		return l
	}
	edges := make([]Edge, g.m)
	copy(edges, g.edges)
	for id := len(g.edges); id < g.m; id++ {
		edges[id] = g.Edge(id)
	}
	g.full.CompareAndSwap(nil, &layout{edges: edges, adj: layOut(g.n, edges)})
	return g.full.Load()
}
