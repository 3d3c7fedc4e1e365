package graph

import "math/rand"

// The generators below produce the graph families used across the paper's
// experiments (DESIGN.md §3): paths and trees (high diameter, treewidth 1),
// grids and wide grids (planar, the Fig. 1 topology), tori, caterpillars
// (bounded treewidth with tunable shape), stars and complete graphs
// (degenerate extremes), random regular graphs (expander stand-ins), barbells
// (classic congestion bottlenecks) and random connected graphs.
//
// All generators are deterministic given their arguments (randomized ones
// take an explicit seed) so that experiments are reproducible. Each collects
// its edges in EdgeID order and builds the graph in one block (FromEdges),
// so every node's half-edges are capped at its degree.

// fromValid is FromEdges for edges its caller made valid: a generator's,
// a subgraph's or a quotient's.
func fromValid(n int, edges []Edge) *Graph {
	g, err := FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// unit returns the unit-weight edge {u, v}.
func unit(u, v NodeID) Edge { return Edge{U: u, V: v, Weight: 1} }

// pathEdges returns the edges of the n-node path, with room for extra more.
func pathEdges(n, extra int) []Edge {
	edges := make([]Edge, 0, max(n-1, 0)+extra)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, unit(i, i+1))
	}
	return edges
}

// Path returns the n-node path 0-1-...-(n-1) with unit weights.
func Path(n int) *Graph { return fromValid(n, pathEdges(n, 0)) }

// Cycle returns the n-node cycle with unit weights (n >= 3).
func Cycle(n int) *Graph {
	edges := pathEdges(n, 1)
	if n >= 3 {
		edges = append(edges, unit(n-1, 0))
	}
	return fromValid(n, edges)
}

// Grid returns the rows x cols grid with unit weights. Node (r, c) has ID
// r*cols + c. A "wide grid" (cylinder-like shape with small diameter but
// large √n) is Grid(h, w) with h << w.
func Grid(rows, cols int) *Graph {
	id := func(r, c int) NodeID { return r*cols + c }
	edges := make([]Edge, 0, max(rows*(cols-1)+(rows-1)*cols, 0))
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, unit(id(r, c), id(r, c+1)))
			}
			if r+1 < rows {
				edges = append(edges, unit(id(r, c), id(r+1, c)))
			}
		}
	}
	return fromValid(rows*cols, edges)
}

// Torus returns the rows x cols torus (grid with wraparound) with unit
// weights; rows, cols >= 3 to avoid parallel edges.
func Torus(rows, cols int) *Graph {
	id := func(r, c int) NodeID { return r*cols + c }
	edges := make([]Edge, 0, max(2*rows*cols, 0))
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			edges = append(edges, unit(id(r, c), id(r, (c+1)%cols)), unit(id(r, c), id((r+1)%rows, c)))
		}
	}
	return fromValid(rows*cols, edges)
}

// CompleteTree returns the complete b-ary tree with the given number of
// levels (levels >= 1; a single level is one node). Unit weights.
func CompleteTree(branching, levels int) *Graph {
	if levels < 1 {
		return fromValid(0, nil)
	}
	n := 1
	width := 1
	for l := 1; l < levels; l++ {
		width *= branching
		n += width
	}
	edges := make([]Edge, 0, n-1)
	// Children of node v are b*v+1 ... b*v+b, heap style.
	for v := 0; v < n; v++ {
		for c := 1; c <= branching; c++ {
			child := branching*v + c
			if child < n {
				edges = append(edges, unit(v, child))
			}
		}
	}
	return fromValid(n, edges)
}

// Star returns the n-node star with center 0 and unit weights.
//
//distlint:allow testonly hub-and-leaves edge-case topology the congest, linalg and partwise tests share
func Star(n int) *Graph {
	edges := make([]Edge, 0, max(n-1, 0))
	for i := 1; i < n; i++ {
		edges = append(edges, unit(0, i))
	}
	return fromValid(n, edges)
}

// Complete returns the complete graph K_n with unit weights.
//
//distlint:allow testonly diameter-1 edge-case topology the apps, shortcut and treewidth tests share
func Complete(n int) *Graph { return fromValid(n, cliqueEdges(nil, 0, n)) }

// cliqueEdges appends the unit edges of a clique on nodes start ..
// start+k-1 to edges, pairs in lexicographic order.
func cliqueEdges(edges []Edge, start, k int) []Edge {
	for u := start; u < start+k; u++ {
		for v := u + 1; v < start+k; v++ {
			edges = append(edges, unit(u, v))
		}
	}
	return edges
}

// Caterpillar returns a caterpillar: a spine path of spine nodes, each spine
// node with legs pendant leaves. Treewidth 1, diameter spine+1, n =
// spine*(1+legs). Unit weights.
func Caterpillar(spine, legs int) *Graph {
	edges := pathEdges(spine, max(spine*legs, 0))
	next := spine
	for i := 0; i < spine; i++ {
		for l := 0; l < legs; l++ {
			edges = append(edges, unit(i, next))
			next++
		}
	}
	return fromValid(spine*(1+legs), edges)
}

// Barbell returns two K_k cliques joined by a path of bridge nodes
// (bridge >= 0; bridge == 0 joins the cliques by a single edge).
// The classic bandwidth-bottleneck topology. Unit weights.
func Barbell(k, bridge int) *Graph {
	n := 2*k + bridge
	edges := cliqueEdges(nil, 0, k)
	edges = cliqueEdges(edges, k+bridge, k)
	prev := k - 1 // a node of the first clique
	for b := 0; b < bridge; b++ {
		edges = append(edges, unit(prev, k+b))
		prev = k + b
	}
	edges = append(edges, unit(prev, k+bridge))
	return fromValid(n, edges)
}

// RandomRegular returns a connected random d-regular-ish multigraph on n
// nodes via the configuration model with retries, used as an expander
// stand-in (random regular graphs are expanders with high probability).
// Parallel edges are collapsed and self-loops dropped, so degrees may fall
// slightly below d; the graph is then patched to be connected. n*d must be
// even for an exact configuration; otherwise one stub is dropped.
func RandomRegular(n, d int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	if n <= 1 {
		return fromValid(n, nil)
	}
	if d >= n {
		d = n - 1
	}
	stubs := make([]NodeID, 0, n*d)
	for v := 0; v < n; v++ {
		for i := 0; i < d; i++ {
			stubs = append(stubs, v)
		}
	}
	if len(stubs)%2 == 1 {
		stubs = stubs[:len(stubs)-1]
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	used := make(map[[2]NodeID]bool)
	edges := make([]Edge, 0, len(stubs)/2)
	for i := 0; i+1 < len(stubs); i += 2 {
		u, v := stubs[i], stubs[i+1]
		if u == v {
			continue
		}
		key := [2]NodeID{min(u, v), max(u, v)}
		if used[key] {
			continue
		}
		used[key] = true
		edges = append(edges, unit(u, v))
	}
	return patchConnected(n, edges, rng)
}

// RandomConnected returns a connected random graph on n nodes with roughly
// extra additional edges beyond a random spanning tree. Unit weights unless
// maxWeight > 1, in which case weights are uniform in [1, maxWeight].
func RandomConnected(n, extra int, maxWeight int64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	w := func() int64 {
		if maxWeight <= 1 {
			return 1
		}
		return 1 + rng.Int63n(maxWeight)
	}
	// Random spanning tree by random attachment (random recursive tree).
	perm := rng.Perm(n)
	edges := make([]Edge, 0, max(n-1, 0)+max(extra, 0))
	for i := 1; i < n; i++ {
		parent := perm[rng.Intn(i)]
		edges = append(edges, Edge{U: perm[i], V: parent, Weight: w()})
	}
	used := make(map[[2]NodeID]bool, extra)
	for _, e := range edges {
		used[[2]NodeID{min(e.U, e.V), max(e.U, e.V)}] = true
	}
	for tries, added := 0, 0; added < extra && tries < 20*extra+100; tries++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		key := [2]NodeID{min(u, v), max(u, v)}
		if used[key] {
			continue
		}
		used[key] = true
		edges = append(edges, Edge{U: u, V: v, Weight: w()})
		added++
	}
	return fromValid(n, edges)
}

// patchConnected returns the graph of n nodes and edges, with a unit edge
// between its first two components appended and the graph rebuilt until
// it is connected.
func patchConnected(n int, edges []Edge, rng *rand.Rand) *Graph {
	g := fromValid(n, edges)
	for comps := Components(g); len(comps) > 1; comps = Components(g) {
		a := comps[0][rng.Intn(len(comps[0]))]
		b := comps[1][rng.Intn(len(comps[1]))]
		edges = append(edges, unit(a, b))
		g = fromValid(n, edges)
	}
	return g
}

// Family is a named graph generator used by experiment sweeps.
type Family struct {
	Name string
	Make func(n int) *Graph
}

// StandardFamilies returns the graph families that the experiment tables
// sweep over, each parameterized by an approximate target size n.
func StandardFamilies() []Family {
	return []Family{
		{Name: "path", Make: Path},
		{Name: "grid", Make: func(n int) *Graph { s := isqrt(n); return Grid(s, s) }},
		{Name: "widegrid", Make: func(n int) *Graph {
			h := isqrt(isqrt(n) * 2)
			if h < 2 {
				h = 2
			}
			return Grid(h, (n+h-1)/h)
		}},
		{Name: "tree", Make: func(n int) *Graph { return CompleteTree(2, log2ceil(n)+1) }},
		{Name: "expander", Make: func(n int) *Graph { return RandomRegular(n, 4, 7) }},
	}
}

// isqrt returns floor(sqrt(n)) for n >= 0.
func isqrt(n int) int {
	if n < 0 {
		return 0
	}
	x := n
	y := (x + 1) / 2
	for y < x {
		x = y
		y = (x + n/x) / 2
	}
	if x*x > n {
		x--
	}
	return x
}

// log2ceil returns ceil(log2(n)) for n >= 1, and 0 for n <= 1.
func log2ceil(n int) int {
	k, p := 0, 1
	for p < n {
		p *= 2
		k++
	}
	return k
}

// GridID returns the node ID of cell (r, c) in a Grid(rows, cols) graph.
func GridID(cols, r, c int) NodeID { return r*cols + c }
