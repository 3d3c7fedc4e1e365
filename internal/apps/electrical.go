package apps

import (
	"fmt"

	"distlap/internal/core"
	"distlap/internal/graph"
	"distlap/internal/simtrace"
)

// Electrical computes electrical quantities on a weighted graph through the
// distributed Laplacian solver (the flagship application of the Laplacian
// paradigm, paper §1).
type Electrical struct {
	G    *graph.Graph
	Mode core.Mode
	Tol  float64 // solve tolerance (0 selects 1e-8)
	Seed int64
	// Trace receives the underlying solve's instrumentation (nil = Nop).
	Trace simtrace.Collector
}

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

// CheckSTPair validates an s-t terminal pair against g.
func CheckSTPair(g *graph.Graph, s, t graph.NodeID) error {
	n := g.N()
	if s < 0 || s >= n || t < 0 || t >= n {
		return fmt.Errorf("apps: %w: s=%d t=%d", graph.ErrNodeRange, s, t)
	}
	if s == t {
		return fmt.Errorf("apps: s and t coincide (%d)", s)
	}
	return nil
}

// FlowFromPotentials derives the full electrical-flow result from a solved
// potential vector for the demand χ_s − χ_t: per-edge Ohm's-law currents,
// the effective resistance, and the solve's measured cost. It is the
// shared post-processing of the one-shot path and the prepared-Instance
// path (which amortizes the solve's setup across requests).
func FlowFromPotentials(g *graph.Graph, s, t graph.NodeID, res *core.Result) *FlowResult {
	out := &FlowResult{
		Potentials: res.X,
		Resistance: res.X[s] - res.X[t],
		Rounds:     res.Rounds,
		Iterations: res.Iterations,
		Metrics:    res.Metrics,
	}
	out.EdgeCurrent = make([]float64, g.M())
	for id, e := range g.Edges() {
		out.EdgeCurrent[id] = float64(e.Weight) * (res.X[e.U] - res.X[e.V])
	}
	return out
}

// UnitDemand returns the right-hand side χ_s − χ_t of a unit s-t flow.
func UnitDemand(n int, s, t graph.NodeID) []float64 {
	b := make([]float64, n)
	b[s] = 1
	b[t] = -1
	return b
}

// Flow solves the unit s-t electrical flow.
func (el *Electrical) Flow(s, t graph.NodeID) (*FlowResult, error) {
	if err := CheckSTPair(el.G, s, t); err != nil {
		return nil, err
	}
	res, err := core.SolveOnce(el.G, UnitDemand(el.G.N(), s, t), core.PrepareConfig{
		Mode: el.Mode, Tol: el.Tol, Seed: el.Seed, Trace: el.Trace,
	})
	if err != nil {
		return nil, err
	}
	return FlowFromPotentials(el.G, s, t, res), nil
}

// EffectiveResistance returns just the s-t effective resistance.
func (el *Electrical) EffectiveResistance(s, t graph.NodeID) (float64, error) {
	res, err := el.Flow(s, t)
	if err != nil {
		return 0, err
	}
	return res.Resistance, nil
}
