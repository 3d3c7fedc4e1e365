// Package layered implements the layered graph Ĝ_p of paper §3.1.1
// (Figure 2) and the machinery of Lemmas 15–18: simulation of Ĝ_p inside G
// with ×p round overhead (Lemma 16), randomized O(Δ) multigraph edge
// coloring in O(log n) rounds (Lemma 17), and the embedding of a
// path-restricted p-congested part-wise aggregation instance as a
// 1-congested instance on Ĝ_{O(p)} (Lemma 18).
//
// Determinism obligations: Ĝ_p construction and the projection π are pure
// functions of (G, p) with stable ID mappings; the Lemma 17 coloring is
// randomized but replayable from its explicit seed; Lemma 16 simulation
// charges its ×p overhead under the "layered" engine label so costs are
// never double-attributed to the base network.
package layered

import (
	"errors"

	"distlap/internal/graph"
)

// Layered is the p-layered version Ĝ_p of a base graph: p disjoint copies
// ("layers") of G, plus a p-clique on the copies of each base node.
// Layer edges inherit the base edge's weight; clique edges have weight 1.
// G is built by graph.Layers, which owns the node and edge IDs: the copy
// of base node v in layer l is l*n + v, layer l's copy of base edge e is
// l*m + e, and the clique edges follow, implicit, computed from their IDs
// rather than stored.
type Layered struct {
	Base *graph.Graph
	P    int
	G    *graph.Graph // the layered graph Ĝ_p
}

// ErrBadLayers is returned when p < 1.
var ErrBadLayers = errors.New("layered: p must be >= 1")

// New constructs Ĝ_p. It stores the p*m layer edges; the n*p(p-1)/2
// clique edges stay implicit (graph.Layers).
func New(base *graph.Graph, p int) (*Layered, error) {
	if p < 1 {
		return nil, ErrBadLayers
	}
	return &Layered{Base: base, P: p, G: graph.Layers(base, p)}, nil
}

// Copy returns the layered ID of base node v's copy in the given layer.
func (l *Layered) Copy(v graph.NodeID, layer int) graph.NodeID {
	return layer*l.Base.N() + v
}

// SimulatedRounds converts a round count measured on Ĝ_p into the rounds
// charged on the base network when the layered algorithm is simulated in G
// (Lemma 16): each G-edge carries the traffic of its p layer copies, and
// each node locally simulates its p copies and their clique (clique
// messages are node-internal in the simulation and free).
func (l *Layered) SimulatedRounds(layeredRounds int) int {
	return l.P * layeredRounds
}
