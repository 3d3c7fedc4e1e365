package apps

import (
	"fmt"

	"distlap/internal/graph"
)

// This file provides the max-flow/min-cut side of the Laplacian paradigm
// that the paper's conclusion points at (§5: the solver "directly
// impl[ies]" faster max-flow): an exact Edmonds–Karp reference on the
// weighted graph (capacities = edge weights) that the approximate
// max-flow is measured against.

// MaxFlowResult reports an exact s-t max-flow computation.
type MaxFlowResult struct {
	Value    int64
	CutS     []graph.NodeID // the s-side of a minimum cut
	Augments int
}

// MaxFlowExact computes the exact s-t max flow by Edmonds–Karp
// (BFS augmenting paths) treating edge weights as capacities.
// It is the sequential comparator for the electrical-flow applications.
func MaxFlowExact(g *graph.Graph, s, t graph.NodeID) (*MaxFlowResult, error) {
	n := g.N()
	if s < 0 || s >= n || t < 0 || t >= n {
		return nil, fmt.Errorf("apps: %w: s=%d t=%d", graph.ErrNodeRange, s, t)
	}
	if s == t {
		return nil, fmt.Errorf("apps: s and t coincide (%d)", s)
	}
	// Residual capacities per directed edge: 2*id (U->V) and 2*id+1 (V->U).
	resid := make([]int64, 2*g.M())
	for id, e := range g.Edges() {
		resid[2*id] = e.Weight
		resid[2*id+1] = e.Weight
	}
	dirOf := func(id graph.EdgeID, from graph.NodeID) int {
		if g.Edge(id).U == from {
			return 2 * id
		}
		return 2*id + 1
	}
	res := &MaxFlowResult{}
	for {
		// BFS on residual graph.
		parent := make([]graph.NodeID, n)
		parentEdge := make([]graph.EdgeID, n)
		for i := range parent {
			parent[i] = -1
			parentEdge[i] = -1
		}
		parent[s] = s
		queue := []graph.NodeID{s}
		for len(queue) > 0 && parent[t] == -1 {
			v := queue[0]
			queue = queue[1:]
			for _, h := range g.Neighbors(v) {
				if parent[h.To] == -1 && resid[dirOf(h.Edge, v)] > 0 {
					parent[h.To] = v
					parentEdge[h.To] = h.Edge
					queue = append(queue, h.To)
				}
			}
		}
		if parent[t] == -1 {
			break
		}
		// Bottleneck along the path.
		bottleneck := int64(1) << 62
		for v := t; v != s; v = parent[v] {
			if c := resid[dirOf(parentEdge[v], parent[v])]; c < bottleneck {
				bottleneck = c
			}
		}
		for v := t; v != s; v = parent[v] {
			fwd := dirOf(parentEdge[v], parent[v])
			resid[fwd] -= bottleneck
			resid[fwd^1] += bottleneck
		}
		res.Value += bottleneck
		res.Augments++
	}
	// Min cut = nodes reachable from s in the final residual graph.
	reach := make([]bool, n)
	reach[s] = true
	stack := []graph.NodeID{s}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, h := range g.Neighbors(v) {
			if !reach[h.To] && resid[dirOf(h.Edge, v)] > 0 {
				reach[h.To] = true
				stack = append(stack, h.To)
			}
		}
	}
	for v := 0; v < n; v++ {
		if reach[v] {
			res.CutS = append(res.CutS, v)
		}
	}
	return res, nil
}

// CutValue returns the total weight of edges leaving the node set side.
func CutValue(g *graph.Graph, side []graph.NodeID) int64 {
	in := make(map[graph.NodeID]bool, len(side))
	for _, v := range side {
		in[v] = true
	}
	var total int64
	for _, e := range g.Edges() {
		if in[e.U] != in[e.V] {
			total += e.Weight
		}
	}
	return total
}
