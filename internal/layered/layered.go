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
	"fmt"

	"distlap/internal/graph"
)

// Layered is the p-layered version Ĝ_p of a base graph: p disjoint copies
// ("layers") of G, plus a p-clique on the copies of each base node.
// Layer edges inherit the base edge's weight; clique edges have weight 1.
//
// Edge IDs are positional: layer l's copy of base edge e is l*m + e, and
// the clique edge joining copies i < j of base node v follows all layer
// edges at p*m + v*p(p-1)/2 + pairIndex(p, i, j).
type Layered struct {
	Base *graph.Graph
	P    int
	G    *graph.Graph // the layered graph Ĝ_p
}

// ErrBadLayers is returned when p < 1.
var ErrBadLayers = errors.New("layered: p must be >= 1")

// New constructs Ĝ_p. The copy of base node v in layer l has layered ID
// l*n + v. It knows all p*m + n*p(p-1)/2 edges up front, so it writes them
// into one list and builds the graph from it in one block.
func New(base *graph.Graph, p int) (*Layered, error) {
	if p < 1 {
		return nil, ErrBadLayers
	}
	n, m := base.N(), base.M()
	l := &Layered{Base: base, P: p}
	edges := make([]graph.Edge, 0, p*m+n*(p*(p-1)/2))
	for layer := 0; layer < p; layer++ {
		for _, be := range base.EdgeList() {
			edges = append(edges, graph.Edge{U: l.Copy(be.U, layer), V: l.Copy(be.V, layer), Weight: be.Weight})
		}
	}
	// Cliques on copies of each node, pairs in pairIndex order.
	for v := 0; v < n; v++ {
		for i := 0; i < p; i++ {
			for j := i + 1; j < p; j++ {
				edges = append(edges, graph.Edge{U: l.Copy(v, i), V: l.Copy(v, j), Weight: 1})
			}
		}
	}
	lg, err := graph.FromEdges(n*p, edges)
	if err != nil {
		return nil, fmt.Errorf("layered: %w", err)
	}
	l.G = lg
	return l, nil
}

// pairIndex enumerates pairs (i, j), j > i, of [0, p) in lexicographic
// order.
func pairIndex(p, i, j int) int {
	// Pairs with first element < i: i*(p-1) - i*(i-1)/2 ... derive directly:
	return i*(2*p-i-1)/2 + (j - i - 1)
}

// Copy returns the layered ID of base node v's copy in the given layer.
func (l *Layered) Copy(v graph.NodeID, layer int) graph.NodeID {
	return layer*l.Base.N() + v
}

// Project maps a layered node back to its base node and layer (the
// projection π of the paper).
func (l *Layered) Project(x graph.NodeID) (v graph.NodeID, layer int) {
	n := l.Base.N()
	return x % n, x / n
}

// LayerEdge returns the layered edge that is the given layer's copy of the
// base edge.
func (l *Layered) LayerEdge(layer int, baseEdge graph.EdgeID) graph.EdgeID {
	return layer*l.Base.M() + baseEdge
}

// CliqueEdge returns the layered edge joining copies (v, i) and (v, j),
// i != j.
func (l *Layered) CliqueEdge(v graph.NodeID, i, j int) (graph.EdgeID, error) {
	if i == j || i < 0 || j < 0 || i >= l.P || j >= l.P {
		return 0, fmt.Errorf("layered: bad clique pair (%d, %d) with p=%d", i, j, l.P)
	}
	if j < i {
		i, j = j, i
	}
	pairs := l.P * (l.P - 1) / 2
	return l.P*l.Base.M() + v*pairs + pairIndex(l.P, i, j), nil
}

// SimulationOverhead returns the multiplicative round overhead of running a
// Ĝ_p algorithm on G (Lemma 16): each G-edge carries the traffic of its p
// layer copies, and each node locally simulates its p copies and their
// clique (clique messages are node-internal in the simulation and free).
func (l *Layered) SimulationOverhead() int { return l.P }

// SimulatedRounds converts a round count measured on Ĝ_p into the rounds
// charged on the base network when the layered algorithm is simulated in G
// (Lemma 16).
func (l *Layered) SimulatedRounds(layeredRounds int) int {
	return l.P * layeredRounds
}
