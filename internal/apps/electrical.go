package apps

import (
	"fmt"

	"distlap/internal/core"
	"distlap/internal/graph"
)

// FlowResult reports an s-t electrical flow computation.
type FlowResult struct {
	Potentials  []float64 // node potentials x with L x = χ_s − χ_t
	EdgeCurrent []float64 // per edge: w_e (x_u − x_v), oriented U -> V
	Resistance  float64   // effective resistance x_s − x_t
	Rounds      int
	Iterations  int
	// Metrics is the structured communication cost of the underlying
	// solve; prefer it over the bare Rounds count.
	Metrics core.Metrics
}

// Flow computes the unit s-t electrical flow on g — the flagship
// application of the Laplacian paradigm (paper §1) — through one call of
// solve, which returns the potentials for a right-hand side: it checks the
// terminal pair, solves for the demand χ_s − χ_t, and derives the per-edge
// Ohm's-law currents, the effective resistance and the solve's measured
// cost. A one-shot solve and a request against a prepared instance differ
// only in the solve they pass.
func Flow(g *graph.Graph, s, t graph.NodeID, solve func(b []float64) (*core.Result, error)) (*FlowResult, error) {
	n := g.N()
	if s < 0 || s >= n || t < 0 || t >= n {
		return nil, fmt.Errorf("apps: %w: s=%d t=%d", graph.ErrNodeRange, s, t)
	}
	if s == t {
		return nil, fmt.Errorf("apps: s and t coincide (%d)", s)
	}
	b := make([]float64, n)
	b[s], b[t] = 1, -1
	res, err := solve(b)
	if err != nil {
		return nil, err
	}
	out := &FlowResult{
		Potentials:  res.X,
		EdgeCurrent: make([]float64, g.M()),
		Resistance:  res.X[s] - res.X[t],
		Rounds:      res.Rounds,
		Iterations:  res.Iterations,
		Metrics:     res.Metrics,
	}
	for id, e := range g.EdgeList() {
		out.EdgeCurrent[id] = float64(e.Weight) * (res.X[e.U] - res.X[e.V])
	}
	return out, nil
}
