package apps

import (
	"errors"
	"fmt"

	"distlap/internal/congest"
	"distlap/internal/core"
	"distlap/internal/graph"
	"distlap/internal/linalg"
	"distlap/internal/partwise"
)

// SpanningResult reports a spanning-connected-subgraph decision.
type SpanningResult struct {
	Connected bool
	Rounds    int
}

// SpanningConnectedViaPWA decides whether the subgraph H of g given by
// subEdges is connected and spanning, using Borůvka-style component
// counting over part-wise aggregation (the direct algorithm the Theorem 29
// lower bound applies to).
func SpanningConnectedViaPWA(nw *congest.Network, subEdges []graph.EdgeID, solver partwise.Solver) (*SpanningResult, error) {
	g := nw.Graph()
	hedges := make([]graph.Edge, len(subEdges))
	for i, id := range subEdges {
		hedges[i] = g.Edge(id)
	}
	h, err := graph.FromEdges(g.N(), hedges)
	if err != nil {
		return nil, err
	}
	// Borůvka-style component merging starting from singletons (each node
	// initially knows only itself), communicating over G (H ⊆ G, so every
	// H edge is usable). Each phase is one part-wise aggregation over the
	// current components (connected in G since they are connected in H).
	before := nw.Rounds()
	comps := make([][]graph.NodeID, g.N())
	for v := 0; v < g.N(); v++ {
		comps[v] = []graph.NodeID{v}
	}
	for phase := 0; len(comps) > 1 && phase <= 2*log2(g.N())+4; phase++ {
		inst := &partwise.Instance{}
		owner := make([]int, g.N())
		for ci, comp := range comps {
			for _, v := range comp {
				owner[v] = ci
			}
		}
		// One exchange round: every node learns its neighbors' component
		// IDs (needed to recognize outgoing edges).
		nw.Exchange(
			func(v graph.NodeID, h graph.Half) (congest.Word, bool) {
				return congest.Word(owner[v]), true
			},
			func(graph.NodeID, graph.Half, congest.Word) {},
		)
		for _, comp := range comps {
			vals := make([]congest.Word, len(comp))
			for i, v := range comp {
				best := noEdge
				for _, hh := range h.Neighbors(v) {
					if owner[hh.To] != owner[v] {
						// h edge IDs differ from g edge IDs; re-encode with
						// the h ID (sufficient for merging decisions).
						if enc := encodeEdge(h.Edge(hh.Edge).Weight, hh.Edge); enc < best {
							best = enc
						}
					}
				}
				vals[i] = best
			}
			inst.Parts = append(inst.Parts, comp)
			inst.Values = append(inst.Values, vals)
		}
		spec := partwise.AggSpec{Name: "minedge", Fn: congest.AggMin, Identity: noEdge}
		mins, err := solver.Solve(nw, inst, spec)
		if err != nil {
			return nil, err
		}
		uf := graph.NewUnionFind(len(comps))
		progress := false
		for _, m := range mins {
			if m == noEdge {
				continue
			}
			e := h.Edge(decodeEdge(m))
			if uf.Union(owner[e.U], owner[e.V]) {
				progress = true
			}
		}
		if !progress {
			break
		}
		merged := make(map[int][]graph.NodeID)
		for ci, comp := range comps {
			r := uf.Find(ci)
			merged[r] = append(merged[r], comp...)
		}
		comps = comps[:0]
		for ci := 0; ci < len(mins); ci++ {
			if c, ok := merged[ci]; ok && uf.Find(ci) == ci {
				comps = append(comps, c)
			}
		}
		// Charge the fragment-relabel aggregation over the merged
		// components (every member must learn its new component ID).
		relabel := &partwise.Instance{}
		for _, comp := range comps {
			vals := make([]congest.Word, len(comp))
			for i, v := range comp {
				vals[i] = congest.Word(v)
			}
			relabel.Parts = append(relabel.Parts, comp)
			relabel.Values = append(relabel.Values, vals)
		}
		if _, err := solver.Solve(nw, relabel, partwise.Min); err != nil {
			return nil, err
		}
	}
	return &SpanningResult{
		Connected: len(comps) == 1,
		Rounds:    nw.Rounds() - before,
	}, nil
}

// SpanningConnectedViaLaplacian realizes the Theorem 1 reduction: a
// Laplacian solver with error ε < 1/2 decides the spanning connected
// subgraph problem. We solve L_H x = χ_s − 1/n on the subgraph H; if H is
// disconnected, the right-hand side restricted to a component missing s
// does not sum to zero, so no x can drive the residual below ~1/(2√n) and
// the solver hits its iteration cap. Convergence within the cap therefore
// certifies connectivity.
func SpanningConnectedViaLaplacian(g *graph.Graph, subEdges []graph.EdgeID, mode core.Mode, seed int64) (*SpanningResult, error) {
	n := g.N()
	if n == 0 {
		return nil, errors.New("apps: empty graph")
	}
	hedges := make([]graph.Edge, len(subEdges))
	for i, id := range subEdges {
		e := g.Edge(id)
		hedges[i] = graph.Edge{U: e.U, V: e.V, Weight: 1}
	}
	h, err := graph.FromEdges(n, hedges)
	if err != nil {
		return nil, err
	}
	// Local degree check: a node with no H edge decides "not spanning"
	// immediately (0 rounds).
	for v := 0; v < n; v++ {
		if h.Degree(v) == 0 {
			return &SpanningResult{Connected: n == 1}, nil
		}
	}
	// The comm must run on H: communication along subgraph edges only is a
	// restriction, but H ⊆ G so any H-round is implementable in G.
	if !graph.IsConnected(h) {
		// The solver cannot even build its BFS tree across components; a
		// real execution would detect this by the BFS not reaching all
		// nodes within n rounds. Charge that probe.
		return &SpanningResult{Connected: false, Rounds: n}, nil
	}
	b := make([]float64, n)
	b[0] = 1
	for i := range b {
		b[i] -= 1 / float64(n)
	}
	res, err := core.SolveOnce(h, b, core.PrepareConfig{Mode: mode, Tol: 1e-6, Seed: seed})
	if err != nil {
		if errors.Is(err, linalg.ErrNoConverge) {
			return &SpanningResult{Connected: false}, nil
		}
		return nil, fmt.Errorf("apps: laplacian reduction: %w", err)
	}
	return &SpanningResult{Connected: true, Rounds: res.Rounds}, nil
}
