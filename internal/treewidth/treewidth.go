// Package treewidth implements tree decompositions (paper Definition 11),
// heuristic width computation via elimination orderings, and the explicit
// lifting of a decomposition of G to its layered graph Ĝ_p that witnesses
// Lemma 19: tw(Ĝ_p) ≤ p·tw(G) + p − 1.
//
// Determinism obligations: elimination orderings break ties by node ID,
// heuristics use no randomness, and every decomposition is checked for
// validity (connected bags, covered edges) before its width is reported —
// widths are certified by explicit witnesses.
package treewidth

import (
	"errors"
	"fmt"
	"sort"

	"distlap/internal/graph"
	"distlap/internal/layered"
)

// Decomposition is a tree decomposition: bags of nodes connected by tree
// edges (indices into Bags).
type Decomposition struct {
	Bags  [][]graph.NodeID
	Edges [][2]int
}

// Width returns the decomposition width: max bag size − 1.
func (d *Decomposition) Width() int {
	w := 0
	for _, b := range d.Bags {
		if len(b) > w {
			w = len(b)
		}
	}
	return w - 1
}

// Errors reported by Validate.
var (
	ErrNotTree         = errors.New("treewidth: bag graph is not a tree")
	ErrNodeUncovered   = errors.New("treewidth: node in no bag")
	ErrEdgeUncovered   = errors.New("treewidth: edge endpoints share no bag")
	ErrNotContiguous   = errors.New("treewidth: bags containing a node are not connected")
	ErrNoDecomposition = errors.New("treewidth: empty decomposition for nonempty graph")
)

// Validate checks the three Definition 11 properties against g.
func (d *Decomposition) Validate(g *graph.Graph) error {
	if g.N() == 0 {
		return nil
	}
	if len(d.Bags) == 0 {
		return ErrNoDecomposition
	}
	// Bag graph must be a tree (connected, |E| = |bags|-1).
	if len(d.Edges) != len(d.Bags)-1 {
		return fmt.Errorf("%w: %d bags, %d edges", ErrNotTree, len(d.Bags), len(d.Edges))
	}
	uf := graph.NewUnionFind(len(d.Bags))
	for _, e := range d.Edges {
		if e[0] < 0 || e[0] >= len(d.Bags) || e[1] < 0 || e[1] >= len(d.Bags) {
			return fmt.Errorf("%w: edge %v out of range", ErrNotTree, e)
		}
		if !uf.Union(e[0], e[1]) {
			return fmt.Errorf("%w: cycle through %v", ErrNotTree, e)
		}
	}
	if uf.Count() != 1 {
		return fmt.Errorf("%w: %d components", ErrNotTree, uf.Count())
	}
	// Property 1 (coverage) and 2 (contiguity).
	inBags := make(map[graph.NodeID][]int)
	for i, b := range d.Bags {
		for _, v := range b {
			inBags[v] = append(inBags[v], i)
		}
	}
	for v := 0; v < g.N(); v++ {
		bags := inBags[v]
		if len(bags) == 0 {
			return fmt.Errorf("%w: node %d", ErrNodeUncovered, v)
		}
		if !bagsConnected(d, bags) {
			return fmt.Errorf("%w: node %d", ErrNotContiguous, v)
		}
	}
	// Property 3 (edge coverage).
	for id := 0; id < g.M(); id++ {
		e := g.Edge(id)
		covered := false
		setU := make(map[int]bool, len(inBags[e.U]))
		for _, i := range inBags[e.U] {
			setU[i] = true
		}
		for _, i := range inBags[e.V] {
			if setU[i] {
				covered = true
				break
			}
		}
		if !covered {
			return fmt.Errorf("%w: edge %d={%d,%d}", ErrEdgeUncovered, id, e.U, e.V)
		}
	}
	return nil
}

// bagsConnected checks that the given bag indices induce a connected
// subtree of the bag tree.
func bagsConnected(d *Decomposition, bags []int) bool {
	if len(bags) <= 1 {
		return true
	}
	in := make(map[int]bool, len(bags))
	for _, b := range bags {
		in[b] = true
	}
	adj := make(map[int][]int)
	for _, e := range d.Edges {
		if in[e[0]] && in[e[1]] {
			adj[e[0]] = append(adj[e[0]], e[1])
			adj[e[1]] = append(adj[e[1]], e[0])
		}
	}
	seen := map[int]bool{bags[0]: true}
	stack := []int{bags[0]}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range adj[v] {
			if !seen[u] {
				seen[u] = true
				stack = append(stack, u)
			}
		}
	}
	return len(seen) == len(bags)
}

// Heuristic computes a tree decomposition via a greedy min-fill elimination
// ordering (ties by min degree, then node ID). The width is an upper bound
// on tw(G); on trees, paths, and series-parallel-ish inputs it is typically
// exact.
func Heuristic(g *graph.Graph) *Decomposition {
	n := g.N()
	if n == 0 {
		return &Decomposition{}
	}
	// Working adjacency (simple graph view).
	adj := make([]map[graph.NodeID]bool, n)
	for v := 0; v < n; v++ {
		adj[v] = make(map[graph.NodeID]bool)
	}
	for _, e := range g.EdgeList() {
		adj[e.U][e.V] = true
		adj[e.V][e.U] = true
	}
	eliminated := make([]bool, n)
	order := make([]graph.NodeID, 0, n)
	bagOf := make([][]graph.NodeID, 0, n)

	// liveNeighbors returns v's non-eliminated neighbors in sorted order;
	// bags are built from it, so its order must not leak map iteration
	// order into the decomposition.
	liveNeighbors := func(v graph.NodeID) []graph.NodeID {
		nb := make([]graph.NodeID, 0, len(adj[v]))
		for u := range adj[v] {
			if !eliminated[u] {
				nb = append(nb, u)
			}
		}
		sort.Ints(nb)
		return nb
	}
	fillOf := func(nb []graph.NodeID) int {
		fill := 0
		for i := 0; i < len(nb); i++ {
			for j := i + 1; j < len(nb); j++ {
				if !adj[nb[i]][nb[j]] {
					fill++
				}
			}
		}
		return fill
	}
	for len(order) < n {
		best, bestFill, bestDeg := -1, 1<<30, 1<<30
		for v := 0; v < n; v++ {
			if eliminated[v] {
				continue
			}
			nb := liveNeighbors(v)
			f := fillOf(nb)
			if f < bestFill || (f == bestFill && len(nb) < bestDeg) {
				best, bestFill, bestDeg = v, f, len(nb)
			}
		}
		v := best
		nb := liveNeighbors(v)
		// Make the neighborhood a clique (chordalize).
		for i := 0; i < len(nb); i++ {
			for j := i + 1; j < len(nb); j++ {
				adj[nb[i]][nb[j]] = true
				adj[nb[j]][nb[i]] = true
			}
		}
		bag := append([]graph.NodeID{v}, nb...)
		bagOf = append(bagOf, bag)
		order = append(order, v)
		eliminated[v] = true
	}
	// Build the bag tree: bag i connects to the bag of the earliest-
	// eliminated neighbor remaining in bag i (standard clique-tree link).
	pos := make([]int, n)
	for i, v := range order {
		pos[v] = i
	}
	d := &Decomposition{Bags: bagOf}
	for i, bag := range bagOf {
		next := -1
		for _, u := range bag[1:] {
			if next == -1 || pos[u] < pos[next] {
				next = u
			}
		}
		if next != -1 {
			d.Edges = append(d.Edges, [2]int{i, pos[next]})
		}
	}
	// A connected chordalized graph yields exactly len(bags)-1 links; for
	// disconnected graphs multiple roots appear — chain them to keep the
	// bag graph a tree.
	for len(d.Edges) < len(d.Bags)-1 {
		// Find components of the bag graph and join consecutive roots.
		uf := graph.NewUnionFind(len(d.Bags))
		for _, e := range d.Edges {
			uf.Union(e[0], e[1])
		}
		roots := []int{}
		seen := map[int]bool{}
		for i := range d.Bags {
			r := uf.Find(i)
			if !seen[r] {
				seen[r] = true
				roots = append(roots, i)
			}
		}
		for i := 0; i+1 < len(roots); i++ {
			d.Edges = append(d.Edges, [2]int{roots[i], roots[i+1]})
		}
	}
	return d
}

// LiftToLayered lifts a decomposition of the base graph to its layered
// graph by replacing every bag X with the union of X's copies across all p
// layers (the Lemma 19 witness): the lifted width is exactly
// p·(w+1) − 1 ≤ p·tw(G) + p − 1 when d is optimal.
func LiftToLayered(d *Decomposition, l *layered.Layered) *Decomposition {
	out := &Decomposition{
		Bags:  make([][]graph.NodeID, len(d.Bags)),
		Edges: append([][2]int(nil), d.Edges...),
	}
	for i, bag := range d.Bags {
		lifted := make([]graph.NodeID, 0, len(bag)*l.P)
		for _, v := range bag {
			for layer := 0; layer < l.P; layer++ {
				lifted = append(lifted, l.Copy(v, layer))
			}
		}
		out.Bags[i] = lifted
	}
	return out
}
