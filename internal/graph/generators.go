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
// take an explicit seed) so that experiments are reproducible.

// Path returns the n-node path 0-1-...-(n-1) with unit weights.
func Path(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.MustAddEdge(i, i+1, 1)
	}
	return g
}

// Cycle returns the n-node cycle with unit weights (n >= 3).
func Cycle(n int) *Graph {
	g := Path(n)
	if n >= 3 {
		g.MustAddEdge(n-1, 0, 1)
	}
	return g
}

// Grid returns the rows x cols grid with unit weights. Node (r, c) has ID
// r*cols + c. A "wide grid" (cylinder-like shape with small diameter but
// large √n) is Grid(h, w) with h << w.
func Grid(rows, cols int) *Graph {
	g := New(rows * cols)
	id := func(r, c int) NodeID { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.MustAddEdge(id(r, c), id(r, c+1), 1)
			}
			if r+1 < rows {
				g.MustAddEdge(id(r, c), id(r+1, c), 1)
			}
		}
	}
	return g
}

// Torus returns the rows x cols torus (grid with wraparound) with unit
// weights; rows, cols >= 3 to avoid parallel edges.
func Torus(rows, cols int) *Graph {
	g := New(rows * cols)
	id := func(r, c int) NodeID { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			g.MustAddEdge(id(r, c), id(r, (c+1)%cols), 1)
			g.MustAddEdge(id(r, c), id((r+1)%rows, c), 1)
		}
	}
	return g
}

// CompleteTree returns the complete b-ary tree with the given number of
// levels (levels >= 1; a single level is one node). Unit weights.
func CompleteTree(branching, levels int) *Graph {
	if levels < 1 {
		return New(0)
	}
	n := 1
	width := 1
	for l := 1; l < levels; l++ {
		width *= branching
		n += width
	}
	g := New(n)
	// Children of node v are b*v+1 ... b*v+b, heap style.
	for v := 0; v < n; v++ {
		for c := 1; c <= branching; c++ {
			child := branching*v + c
			if child < n {
				g.MustAddEdge(v, child, 1)
			}
		}
	}
	return g
}

// Star returns the n-node star with center 0 and unit weights.
//
//distlint:allow testonly hub-and-leaves edge-case topology the congest, linalg and partwise tests share
func Star(n int) *Graph {
	g := New(n)
	for i := 1; i < n; i++ {
		g.MustAddEdge(0, i, 1)
	}
	return g
}

// Complete returns the complete graph K_n with unit weights.
//
//distlint:allow testonly diameter-1 edge-case topology the apps, shortcut and treewidth tests share
func Complete(n int) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.MustAddEdge(u, v, 1)
		}
	}
	return g
}

// Caterpillar returns a caterpillar: a spine path of spine nodes, each spine
// node with legs pendant leaves. Treewidth 1, diameter spine+1, n =
// spine*(1+legs). Unit weights.
func Caterpillar(spine, legs int) *Graph {
	g := New(spine * (1 + legs))
	for i := 0; i+1 < spine; i++ {
		g.MustAddEdge(i, i+1, 1)
	}
	next := spine
	for i := 0; i < spine; i++ {
		for l := 0; l < legs; l++ {
			g.MustAddEdge(i, next, 1)
			next++
		}
	}
	return g
}

// Barbell returns two K_k cliques joined by a path of bridge nodes
// (bridge >= 0; bridge == 0 joins the cliques by a single edge).
// The classic bandwidth-bottleneck topology. Unit weights.
func Barbell(k, bridge int) *Graph {
	n := 2*k + bridge
	g := New(n)
	clique := func(start int) {
		for u := start; u < start+k; u++ {
			for v := u + 1; v < start+k; v++ {
				g.MustAddEdge(u, v, 1)
			}
		}
	}
	clique(0)
	clique(k + bridge)
	prev := k - 1 // a node of the first clique
	for b := 0; b < bridge; b++ {
		g.MustAddEdge(prev, k+b, 1)
		prev = k + b
	}
	g.MustAddEdge(prev, k+bridge, 1)
	return g
}

// RandomRegular returns a connected random d-regular-ish multigraph on n
// nodes via the configuration model with retries, used as an expander
// stand-in (random regular graphs are expanders with high probability).
// Parallel edges are collapsed and self-loops dropped, so degrees may fall
// slightly below d; the graph is then patched to be connected. n*d must be
// even for an exact configuration; otherwise one stub is dropped.
func RandomRegular(n, d int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	if n <= 1 {
		return g
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
		g.MustAddEdge(u, v, 1)
	}
	patchConnected(g, rng)
	return g
}

// RandomConnected returns a connected random graph on n nodes with roughly
// extra additional edges beyond a random spanning tree. Unit weights unless
// maxWeight > 1, in which case weights are uniform in [1, maxWeight].
func RandomConnected(n, extra int, maxWeight int64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	w := func() int64 {
		if maxWeight <= 1 {
			return 1
		}
		return 1 + rng.Int63n(maxWeight)
	}
	// Random spanning tree by random attachment (random recursive tree).
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		parent := perm[rng.Intn(i)]
		g.MustAddEdge(perm[i], parent, w())
	}
	used := make(map[[2]NodeID]bool, extra)
	for _, e := range g.Edges() {
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
		g.MustAddEdge(u, v, w())
		added++
	}
	return g
}

// patchConnected adds unit edges between components until g is connected.
func patchConnected(g *Graph, rng *rand.Rand) {
	comps := Components(g)
	for len(comps) > 1 {
		a := comps[0][rng.Intn(len(comps[0]))]
		b := comps[1][rng.Intn(len(comps[1]))]
		g.MustAddEdge(a, b, 1)
		comps = Components(g)
	}
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
