// Package graph provides the weighted undirected (multi)graph type used by
// every other package in this repository, together with deterministic
// generators for the graph families the paper's experiments sweep over and
// the elementary traversal machinery (BFS, diameter, components, spanning
// trees) that the CONGEST substrate builds on.
//
// Nodes are dense integers in [0, N). Edges are undirected but carry a stable
// EdgeID so that multigraphs (parallel edges) are representable; parallel
// edges matter because the layered-graph reduction (Lemma 17 of the paper)
// edge-colors a multigraph. Weights are positive integers in {1, ..., poly(n)}
// as the paper assumes (§2, "General notation").
//
// Determinism obligations: generators and tree builders are pure functions
// of (parameters, seed); node and edge IDs are dense and assignment-order
// stable so other packages may index arrays by them; randomized
// constructions (MPX shifts, random graphs) draw from rand chains seeded
// via seedderive, never from global or clock-derived state.
package graph

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
)

// NodeID identifies a node; nodes are dense integers in [0, N).
type NodeID = int

// EdgeID identifies an edge; edges are dense integers in [0, M).
type EdgeID = int

// Edge is an undirected weighted edge between U and V.
type Edge struct {
	U, V   NodeID
	Weight int64
}

// Half is one endpoint's view of an incident edge ("half-edge").
type Half struct {
	To   NodeID
	Edge EdgeID
}

// Graph is a weighted undirected multigraph with dense node and edge IDs.
// The zero value is an empty graph with no nodes. A graph is built once, by
// FromEdges or Layers, and no method writes to it after, so one graph is
// shared read-only by any number of concurrent readers.
//
// Every node's half-edges are listed in ascending EdgeID order. A layered
// graph (Layers) keeps its clique edges implicit: they have EdgeIDs after
// the stored edges and are computed from their ID by Edge, counted by M
// and Degree and walked by BFS and Induced without being stored. Neighbors
// and EdgeList, which return stored slices, lay the cliques out on first
// use, once per graph.
type Graph struct {
	n     int
	m     int      // edge count: the stored edges plus any clique edges
	edges []Edge   // the stored edges, EdgeIDs 0 .. len(edges)-1
	adj   [][]Half // each node's half-edges; nil on a layered graph
	cl    cliques  // a layered graph's clique edges and layer half-edges; zero on any other graph
	// full holds a layered graph's cliques laid out, once the first
	// Neighbors or EdgeList call has built them.
	full atomic.Pointer[layout]
}

// layout is a layered graph with its cliques laid out: every edge and
// every node's half-edges, as FromEdges would store them.
type layout struct {
	edges []Edge
	adj   [][]Half
}

// Sentinel errors returned by graph constructors and validators.
var (
	ErrNodeRange = errors.New("graph: node out of range")
	ErrBadWeight = errors.New("graph: weight must be positive")
	ErrSelfLoop  = errors.New("graph: self-loops are not allowed")
	ErrTooLarge  = errors.New("graph: too large to index")
)

// FromEdges returns the graph with n nodes and the given edges, edge i
// getting EdgeID i and each node listing its incident edges in ascending
// EdgeID order. Parallel edges are allowed; an edge with an endpoint out
// of range, a self-loop or a non-positive weight is rejected with the
// sentinel error it breaks, wrapped with its index; a graph too large to
// index (checkSize) is ErrTooLarge. FromEdges takes ownership of edges:
// the caller must not modify the slice after the call.
//
// The adjacency is built eagerly in one block by a counting pass, each
// node's slice capped at its degree.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	n = max(n, 0)
	if err := checkSize(n, len(edges)); err != nil {
		return nil, err
	}
	for id, e := range edges {
		if err := checkEdge(n, e.U, e.V, e.Weight); err != nil {
			return nil, fmt.Errorf("edge %d: %w", id, err)
		}
	}
	return build(n, edges), nil
}

// build returns the graph of n nodes and valid edges.
func build(n int, edges []Edge) *Graph {
	return &Graph{n: n, m: len(edges), edges: edges, adj: layOut(n, edges)}
}

// layOut returns the adjacency of n nodes and valid edges: degrees, then
// each node's offset into one half-edge block, then the half-edges in
// EdgeID order.
func layOut(n int, edges []Edge) [][]Half {
	off := make([]int, n+1)
	for _, e := range edges {
		off[e.U+1]++
		off[e.V+1]++
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	halves := make([]Half, 2*len(edges))
	adj := make([][]Half, n)
	for v := range adj {
		adj[v] = halves[off[v]:off[v]:off[v+1]]
	}
	for id, e := range edges {
		adj[e.U] = append(adj[e.U], Half{To: e.V, Edge: id})
		adj[e.V] = append(adj[e.V], Half{To: e.U, Edge: id})
	}
	return adj
}

// stored returns each node's stored half-edges: all of them on an ordinary
// graph, those of the layer edges on a layered graph.
func (g *Graph) stored() [][]Half {
	if g.cl.pair != nil {
		return g.cl.adj
	}
	return g.adj
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of (undirected) edges.
func (g *Graph) M() int { return g.m }

// StoredM returns the number of stored edges, those with EdgeIDs below
// it: every edge of an ordinary graph, and the layer edges of a layered
// graph, whose clique edges (EdgeIDs StoredM() to M()-1) are computed.
func (g *Graph) StoredM() int { return len(g.edges) }

// checkSize rejects a graph of n nodes and m edges that the engines
// cannot index: they store nodes, slots and directed edges (2·EdgeID + 1)
// as int32.
func checkSize(n, m int) error {
	if n > math.MaxInt32 {
		return fmt.Errorf("%w: %d nodes, at most %d", ErrTooLarge, n, math.MaxInt32)
	}
	if m > math.MaxInt32/2 {
		return fmt.Errorf("%w: %d edges, at most %d", ErrTooLarge, m, math.MaxInt32/2)
	}
	return nil
}

// checkEdge rejects an edge {u, v} of weight w that a graph of n nodes
// cannot hold.
func checkEdge(n int, u, v NodeID, w int64) error {
	if u < 0 || u >= n || v < 0 || v >= n {
		return fmt.Errorf("%w: {%d,%d} with n=%d", ErrNodeRange, u, v, n)
	}
	if u == v {
		return fmt.Errorf("%w: node %d", ErrSelfLoop, u)
	}
	if w <= 0 {
		return fmt.Errorf("%w: %d", ErrBadWeight, w)
	}
	return nil
}

// Edge returns the edge with the given ID. A clique edge is computed, not
// read: it is its pair's edge on base node 0, shifted to its base node.
// The lookup stays free of calls so that the engine's per-word helpers
// that use it are inlined: its inline cost of 54 puts congest's
// Network.ends at the compiler's budget of 80.
func (g *Graph) Edge(id EdgeID) Edge {
	if uint(id) < uint(len(g.edges)) {
		return g.edges[id]
	}
	return g.cl.edge(id - len(g.edges))
}

// EdgeList returns the graph's edge list in EdgeID order. The returned
// slice is the graph's own storage and must not be modified by the caller.
// On a layered graph the first call lays the cliques out.
func (g *Graph) EdgeList() []Edge {
	if g.cl.pair != nil {
		return g.laidOut().edges
	}
	return g.edges
}

// Neighbors returns the half-edges incident to v in ascending EdgeID
// order. The returned slice is the graph's internal storage and must not
// be modified by the caller. On a layered graph, whose adj is nil, the
// first call lays the cliques out. Folding that test into the index's
// bounds check keeps an ordinary graph's lookup as cheap as a plain index
// in Exchange's per-node loop; a node out of range reaches the same slow
// path and panics there.
func (g *Graph) Neighbors(v NodeID) []Half {
	if uint(v) < uint(len(g.adj)) {
		return g.adj[v]
	}
	return g.laidOut().adj[v]
}

// Degree returns the number of edge endpoints at v (parallel edges counted
// with multiplicity).
func (g *Graph) Degree(v NodeID) int {
	if g.cl.pair != nil {
		return len(g.cl.adj[v]) + g.cl.copies - 1
	}
	return len(g.adj[v])
}

// Other returns the endpoint of edge id that is not v.
func (g *Graph) Other(id EdgeID, v NodeID) NodeID {
	e := g.Edge(id)
	if e.U == v {
		return e.V
	}
	return e.U
}

// HasEdgeBetween reports whether at least one edge joins u and v.
func (g *Graph) HasEdgeBetween(u, v NodeID) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return false
	}
	if g.cl.pair != nil && u != v && u%g.cl.width == v%g.cl.width {
		return true // copies of one base node
	}
	// Scan the smaller stored adjacency list.
	adj := g.stored()
	if len(adj[u]) > len(adj[v]) {
		u, v = v, u
	}
	for _, h := range adj[u] {
		if h.To == v {
			return true
		}
	}
	return false
}

// Validate checks internal consistency: the adjacency mirrors the edge
// list, each node's half-edges in ascending EdgeID order, and Degree and M
// count them. Every constructor keeps it (Read and FromEdges range-check
// each edge before laying it out), so it serves as a test oracle. On a
// layered graph it checks the laid-out cliques.
//
//distlint:allow testonly adjacency-mirrors-edge-list oracle the graph, io and layered tests check every constructed graph against
func (g *Graph) Validate() error {
	if len(g.stored()) != g.n {
		return fmt.Errorf("graph: adjacency size %d != n %d", len(g.stored()), g.n)
	}
	edges := g.EdgeList()
	if len(edges) != g.m {
		return fmt.Errorf("graph: %d edges listed, m = %d", len(edges), g.m)
	}
	degSum := 0
	for v := 0; v < g.n; v++ {
		halves := g.Neighbors(v)
		degSum += len(halves)
		if d := g.Degree(v); d != len(halves) {
			return fmt.Errorf("graph: node %d has degree %d but %d half-edges", v, d, len(halves))
		}
		for i, h := range halves {
			if h.Edge < 0 || h.Edge >= len(edges) {
				return fmt.Errorf("graph: node %d references edge %d of %d", v, h.Edge, len(edges))
			}
			if i > 0 && h.Edge <= halves[i-1].Edge {
				return fmt.Errorf("graph: node %d lists edge %d after edge %d", v, h.Edge, halves[i-1].Edge)
			}
			e := edges[h.Edge]
			if e.U != v && e.V != v {
				return fmt.Errorf("graph: node %d lists edge %d={%d,%d} not incident to it", v, h.Edge, e.U, e.V)
			}
			if h.To != g.Other(h.Edge, v) {
				return fmt.Errorf("graph: node %d half-edge target %d mismatches edge %d", v, h.To, h.Edge)
			}
		}
	}
	if degSum != 2*len(edges) {
		return fmt.Errorf("graph: degree sum %d != 2m %d", degSum, 2*len(edges))
	}
	for id, e := range edges {
		if e.U < 0 || e.U >= g.n || e.V < 0 || e.V >= g.n {
			return fmt.Errorf("edge %d: %w", id, ErrNodeRange)
		}
		if e.U == e.V {
			return fmt.Errorf("edge %d: %w", id, ErrSelfLoop)
		}
		if e.Weight <= 0 {
			return fmt.Errorf("edge %d: %w", id, ErrBadWeight)
		}
	}
	return nil
}

// Subgraph returns the subgraph induced by nodes (in the order given),
// together with the mapping from new node IDs to original node IDs. Edges
// with both endpoints inside are kept (including parallel edges).
func (g *Graph) Subgraph(nodes []NodeID) (*Graph, []NodeID) {
	idx := make(map[NodeID]int, len(nodes))
	orig := make([]NodeID, len(nodes))
	for i, v := range nodes {
		idx[v] = i
		orig[i] = v
	}
	var edges []Edge
	for _, e := range g.EdgeList() {
		iu, okU := idx[e.U]
		iv, okV := idx[e.V]
		if okU && okV {
			edges = append(edges, Edge{U: iu, V: iv, Weight: e.Weight})
		}
	}
	return fromValid(len(nodes), edges), orig
}
