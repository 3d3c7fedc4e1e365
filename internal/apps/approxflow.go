package apps

import (
	"fmt"
	"math"

	"distlap/internal/core"
	"distlap/internal/graph"
	"distlap/internal/seedderive"
	"distlap/internal/simtrace"
)

// ApproxMaxFlow approximates the s-t maximum flow with the electrical-flow
// multiplicative-weights method (Christiano–Kelner–Mądry–Spielman–Teng,
// simplified) — the algorithm behind the paper's §5 remark that the
// distributed Laplacian solver "directly impl[ies]" an
// O(m^{1/2+o(1)}·SQ(G)) max-flow algorithm. Each iteration solves one
// Laplacian system through the distributed solver, so the total measured
// rounds are (#MWU iterations) × (solver rounds) — the promised structure.
//
// The returned value is within a (1±3ε) factor of the optimum on the
// (small) graphs the tests exercise; the flow itself is the average of the
// electrical iterates, feasible up to congestion 1+O(ε).
type ApproxMaxFlow struct {
	Mode    core.Mode
	Epsilon float64
	Seed    int64
	// Trace receives every probe solve's instrumentation (nil = Nop).
	Trace simtrace.Collector
}

// ApproxFlowResult reports the approximate computation.
type ApproxFlowResult struct {
	Value      int64     // largest F certified routable with congestion <= 1+eps
	EdgeFlow   []float64 // averaged flow (oriented U -> V), scaled to Value
	Rounds     int       // total solver rounds across all probes
	Solves     int       // Laplacian solves performed
	ExactValue int64     // Edmonds–Karp reference (tests/experiments)
}

// Run computes the approximation and the exact reference.
func (a *ApproxMaxFlow) Run(g *graph.Graph, s, t graph.NodeID) (*ApproxFlowResult, error) {
	if a.Epsilon <= 0 || a.Epsilon >= 0.5 {
		return nil, fmt.Errorf("apps: epsilon %g out of (0, 0.5)", a.Epsilon)
	}
	exact, err := MaxFlowExact(g, s, t)
	if err != nil {
		return nil, err
	}
	res := &ApproxFlowResult{ExactValue: exact.Value}
	if exact.Value == 0 {
		return res, nil
	}
	// Binary search the largest routable F in [1, capacity out of s].
	var hi int64
	for _, h := range g.Neighbors(s) {
		hi += g.Edge(h.Edge).Weight
	}
	lo := int64(1)
	var bestFlow []float64
	for lo <= hi {
		mid := (lo + hi) / 2
		flow, rounds, solves, ok, err := a.probe(g, s, t, mid)
		res.Rounds += rounds
		res.Solves += solves
		if err != nil {
			return nil, err
		}
		if ok {
			res.Value = mid
			bestFlow = flow
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	res.EdgeFlow = bestFlow
	return res, nil
}

// probe decides whether F units route with congestion <= 1+eps, via MWU
// over electrical flows.
func (a *ApproxMaxFlow) probe(g *graph.Graph, s, t graph.NodeID, f int64) ([]float64, int, int, bool, error) {
	m := g.M()
	eps := a.Epsilon
	// The theory budget is pessimistic for infeasible probes (they run to
	// exhaustion); cap it — the averaged-congestion fallback decides
	// feasibility reliably long before the theory bound.
	maxIter := min(int(8*math.Log(float64(m)+2)/(eps*eps))+8, 160)
	w := make([]float64, m)
	for i := range w {
		w[i] = 1
	}
	caps := make([]float64, m)
	for id, e := range g.EdgeList() {
		caps[id] = float64(e.Weight)
	}
	avg := make([]float64, m)
	rounds, solves := 0, 0
	for it := 0; it < maxIter; it++ {
		// Reweighted graph: conductance c_e = cap_e^2 / w_e, discretized.
		// We keep weights in float by scaling to a large integer grid,
		// preserving the paper's integer-weight convention.
		const scale = 1 << 16
		redges := make([]graph.Edge, m)
		for id, e := range g.EdgeList() {
			c := caps[id] * caps[id] / w[id]
			redges[id] = graph.Edge{U: e.U, V: e.V, Weight: int64(c*scale/float64(m)) + 1}
		}
		rg, err := graph.FromEdges(g.N(), redges)
		if err != nil {
			return nil, rounds, solves, false, err
		}
		b := make([]float64, g.N())
		b[s] = float64(f)
		b[t] = -float64(f)
		sol, err := core.SolveOnce(rg, b, core.PrepareConfig{
			Mode: a.Mode, Tol: 1e-8, Seed: seedderive.Derive(a.Seed, "mwu-solve", int64(it)), Trace: a.Trace,
		})
		if err != nil {
			return nil, rounds, solves, false, err
		}
		rounds += sol.Rounds
		solves++
		// Edge flows and congestion.
		rho := 0.0
		flows := make([]float64, m)
		for id, e := range g.EdgeList() {
			cond := float64(rg.Edge(id).Weight)
			flows[id] = cond * (sol.X[e.U] - sol.X[e.V])
			if cg := math.Abs(flows[id]) / caps[id]; cg > rho {
				rho = cg
			}
		}
		for id := range avg {
			avg[id] += flows[id]
		}
		// Telemetry: per-MWU-iteration congestion of the electrical iterate
		// against the solver rounds spent so far across this probe.
		simtrace.OrNop(a.Trace).Gauge("mwu.congestion", it, rho, rounds)
		if rho <= 1+eps {
			// This iterate already routes F within the congestion budget.
			return flows, rounds, solves, true, nil
		}
		// MWU update; if weights explode, F is too large.
		for id := range w {
			cg := math.Abs(flows[id]) / caps[id]
			w[id] *= 1 + eps*cg/rho
		}
	}
	// Fall back to the averaged flow: feasible iff its congestion is small.
	rho := 0.0
	for id := range avg {
		avg[id] /= float64(maxIter)
		if cg := math.Abs(avg[id]) / caps[id]; cg > rho {
			rho = cg
		}
	}
	if rho <= 1+3*eps {
		return avg, rounds, solves, true, nil
	}
	return nil, rounds, solves, false, nil
}
