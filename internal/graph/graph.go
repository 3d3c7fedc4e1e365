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
	"slices"
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
// The zero value is an empty graph with no nodes; use New to pre-allocate.
type Graph struct {
	n     int
	edges []Edge
	adj   [][]Half
}

// Sentinel errors returned by graph constructors and validators.
var (
	ErrNodeRange = errors.New("graph: node out of range")
	ErrBadWeight = errors.New("graph: weight must be positive")
	ErrSelfLoop  = errors.New("graph: self-loops are not allowed")
)

// New returns an empty graph with n nodes and no edges.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{
		n:   n,
		adj: make([][]Half, n),
	}
}

// FromEdges returns the graph with n nodes and the given edges, edge i
// getting EdgeID i: the graph that New(n) and AddEdge over edges in order
// would build, with the same Neighbors order (each node's incident edges
// in ascending EdgeID order). It rejects what AddEdge rejects, with the
// same sentinel errors, and takes ownership of edges.
//
// The adjacency is built eagerly in one block by a counting pass, each
// node's slice capped at its degree, so a later AddEdge reallocates only
// the nodes it touches and the graph is read-only shareable as soon as it
// is returned.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	n = max(n, 0)
	for id, e := range edges {
		if err := checkEdge(n, e.U, e.V, e.Weight); err != nil {
			return nil, fmt.Errorf("edge %d: %w", id, err)
		}
	}
	return build(n, edges), nil
}

// build lays out the adjacency of n nodes and valid edges: degrees, then
// each node's offset into one half-edge block, then the half-edges in
// EdgeID order.
func build(n int, edges []Edge) *Graph {
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
	return &Graph{n: n, edges: edges, adj: adj}
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph { return build(g.n, slices.Clone(g.edges)) }

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of (undirected) edges.
func (g *Graph) M() int { return len(g.edges) }

// AddNode appends a fresh node and returns its ID.
func (g *Graph) AddNode() NodeID {
	g.adj = append(g.adj, nil)
	g.n++
	return g.n - 1
}

// AddEdge inserts an undirected edge {u, v} of weight w and returns its
// EdgeID. Parallel edges are allowed; self-loops and non-positive weights
// are rejected.
func (g *Graph) AddEdge(u, v NodeID, w int64) (EdgeID, error) {
	if err := checkEdge(g.n, u, v, w); err != nil {
		return 0, err
	}
	id := len(g.edges)
	g.edges = append(g.edges, Edge{U: u, V: v, Weight: w})
	g.adj[u] = append(g.adj[u], Half{To: v, Edge: id})
	g.adj[v] = append(g.adj[v], Half{To: u, Edge: id})
	return id, nil
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

// MustAddEdge is AddEdge for construction-time code where the arguments are
// known valid (generators, tests); it panics on error.
func (g *Graph) MustAddEdge(u, v NodeID, w int64) EdgeID {
	id, err := g.AddEdge(u, v, w)
	if err != nil {
		panic(err)
	}
	return id
}

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id EdgeID) Edge { return g.edges[id] }

// Edges returns a copy of the edge list. Callers that only iterate should
// prefer EdgeList, which is allocation-free.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// EdgeList returns the graph's internal edge list in EdgeID order. The
// returned slice is the graph's own storage and must not be modified by
// the caller; it is the O(1) counterpart of Edges for hot loops
// (Laplacian kernels, spectral scans) where the per-call copy would
// dominate the allocation profile.
func (g *Graph) EdgeList() []Edge { return g.edges }

// Neighbors returns the half-edges incident to v. The returned slice is the
// graph's internal storage and must not be modified by the caller.
func (g *Graph) Neighbors(v NodeID) []Half { return g.adj[v] }

// Degree returns the number of edge endpoints at v (parallel edges counted
// with multiplicity).
func (g *Graph) Degree(v NodeID) int { return len(g.adj[v]) }

// Other returns the endpoint of edge id that is not v.
func (g *Graph) Other(id EdgeID, v NodeID) NodeID {
	e := g.edges[id]
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
	// Scan the smaller adjacency list.
	if len(g.adj[u]) > len(g.adj[v]) {
		u, v = v, u
	}
	for _, h := range g.adj[u] {
		if h.To == v {
			return true
		}
	}
	return false
}

// Validate checks internal consistency (adjacency mirrors the edge list).
// Every constructor keeps it (Read and FromEdges range-check each edge
// before laying it out), so it serves as a test oracle.
//
//distlint:allow testonly adjacency-mirrors-edge-list oracle the graph, io and layered tests check every constructed graph against
func (g *Graph) Validate() error {
	if len(g.adj) != g.n {
		return fmt.Errorf("graph: adjacency size %d != n %d", len(g.adj), g.n)
	}
	degSum := 0
	for v := 0; v < g.n; v++ {
		degSum += len(g.adj[v])
		for _, h := range g.adj[v] {
			if h.Edge < 0 || h.Edge >= len(g.edges) {
				return fmt.Errorf("graph: node %d references edge %d of %d", v, h.Edge, len(g.edges))
			}
			e := g.edges[h.Edge]
			if e.U != v && e.V != v {
				return fmt.Errorf("graph: node %d lists edge %d={%d,%d} not incident to it", v, h.Edge, e.U, e.V)
			}
			if h.To != g.Other(h.Edge, v) {
				return fmt.Errorf("graph: node %d half-edge target %d mismatches edge %d", v, h.To, h.Edge)
			}
		}
	}
	if degSum != 2*len(g.edges) {
		return fmt.Errorf("graph: degree sum %d != 2m %d", degSum, 2*len(g.edges))
	}
	for id, e := range g.edges {
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
	sub := New(len(nodes))
	for _, e := range g.edges {
		iu, okU := idx[e.U]
		iv, okV := idx[e.V]
		if okU && okV {
			sub.MustAddEdge(iu, iv, e.Weight)
		}
	}
	return sub, orig
}
