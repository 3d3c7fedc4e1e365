// Package distlap is the public facade of the distributed Laplacian solver
// library, a from-scratch reproduction of "Almost Universally Optimal
// Distributed Laplacian Solvers via Low-Congestion Shortcuts"
// (Anagnostides ⓡ Lenzen ⓡ Haeupler ⓡ Zuzic ⓡ Gouleakis, DISC 2022).
//
// The facade re-exports the pieces a downstream user needs:
//
//   - graph construction (NewGraph, generators via Families),
//   - the measured communication models (Mode values) and the configured
//     solver entry point (Solver, built via NewSolver and options),
//   - the congested part-wise aggregation primitive
//     (Solver.AggregateParts), the paper's central contribution,
//   - deterministic observability (Collector trace sinks, Metrics), and
//   - the shortcut-quality estimator (EstimateShortcutQuality).
//
// The preferred API is the Solver: construct once with functional options
// (WithMode, WithEps, WithSeed, WithTrace, WithChebyshev) and call its
// methods. Every solve runs one pipeline: Solver.Prepare builds the
// per-graph setup into an Instance and each request runs only iteration
// against it; a one-shot solve is Prepare plus one request pinned to its
// seed. For repeated work on one graph — multiple right-hand sides, flow
// queries, a serving daemon (cmd/distlapd) — call Solver.Prepare once and
// issue requests against the returned Instance: per-graph setup is paid
// exactly once.
//
// The package-level functions (Solve, Flow, MaxFlow, ...) are frozen
// compatibility wrappers over a default-configured Solver: they remain
// supported and behavior-stable (none will be removed), but they gain no
// new capabilities — new code should construct a Solver, and latency- or
// throughput-sensitive code should Prepare an Instance.
//
// Everything is implemented on a deterministic CONGEST / NCC / HYBRID
// simulator that physically moves O(log n)-bit messages and measures
// synchronous rounds; see DESIGN.md for the architecture and
// EXPERIMENTS.md for the paper-claim reproduction tables.
package distlap

import (
	"distlap/internal/apps"
	"distlap/internal/core"
	"distlap/internal/graph"
	"distlap/internal/linalg"
	"distlap/internal/partwise"
	"distlap/internal/shortcut"
)

// Graph is a weighted undirected multigraph with dense integer node IDs.
type Graph = graph.Graph

// NewGraph returns an empty graph with n nodes.
func NewGraph(n int) *Graph { return graph.New(n) }

// Families returns the named standard graph generators (path, grid,
// widegrid, tree, expander), each parameterized by an approximate size.
func Families() []graph.Family { return graph.StandardFamilies() }

// Mode selects the communication model a solve runs in.
type Mode = core.Mode

// Communication models (see Theorems 2 and 3 of the paper).
const (
	// ModeUniversal is Supported-CONGEST with shortcut-style aggregation —
	// the almost universally optimal configuration.
	ModeUniversal = core.ModeUniversal
	// ModeCongest is standard CONGEST (construction costs charged).
	ModeCongest = core.ModeCongest
	// ModeBaseline aggregates everything over one global BFS tree — the
	// existentially optimal (√n + D style) baseline.
	ModeBaseline = core.ModeBaseline
	// ModeHybrid augments CONGEST with the node-capacitated clique.
	ModeHybrid = core.ModeHybrid
)

// Result reports a distributed Laplacian solve: the solution, iteration
// count, achieved residual and the measured communication rounds.
type Result = core.Result

// Solve solves the Laplacian system L_g x = b to relative residual eps in
// the given communication model and reports the measured round complexity.
// b must sum to (approximately) zero; the solution is mean-centered.
//
// Solve is a frozen compatibility wrapper (see the package comment). Prefer
// the Solver API — NewSolver(WithMode(mode), WithEps(eps),
// WithSeed(seed)).Solve(g, b) — and Solver.Prepare when solving the same
// graph more than once.
func Solve(g *Graph, b []float64, mode Mode, eps float64, seed int64) (*Result, error) {
	return NewSolver(WithMode(mode), WithEps(eps), WithSeed(seed)).Solve(g, b)
}

// ExactSolve solves L_g x = b directly (dense elimination; ground truth
// for small systems).
func ExactSolve(g *Graph, b []float64) ([]float64, error) {
	return linalg.NewLaplacian(g).SolveExact(b)
}

// RelativeLError returns ‖x − xStar‖_L / ‖xStar‖_L, the paper's accuracy
// metric.
func RelativeLError(g *Graph, x, xStar []float64) float64 {
	return linalg.NewLaplacian(g).RelativeLError(x, xStar)
}

// PartwiseInstance is a (possibly congested) part-wise aggregation
// instance: parts with per-member values (Definitions 4 and 13).
type PartwiseInstance = partwise.Instance

// AggSpec names an aggregation function with its identity element.
type AggSpec = partwise.AggSpec

// Standard aggregation specs.
var (
	AggSum = partwise.Sum
	AggMin = partwise.Min
	AggMax = partwise.Max
	AggAnd = partwise.And
	AggOr  = partwise.Or
)

// AggregateParts solves a p-congested part-wise aggregation instance on g
// in Supported-CONGEST via the paper's layered-graph reduction and returns
// the per-part aggregates together with the measured round count.
//
// Deprecated: the bare round count loses the message totals and per-phase
// breakdown. Prefer NewSolver(WithSeed(seed)).AggregateParts(g, inst,
// spec), whose AggregateResult carries full Metrics.
func AggregateParts(g *Graph, inst *PartwiseInstance, spec AggSpec, seed int64) ([]int64, int, error) {
	res, err := NewSolver(WithSeed(seed)).AggregateParts(g, inst, spec)
	if err != nil {
		return nil, 0, err
	}
	return res.Values, res.Metrics.Congest.Rounds, nil
}

// ShortcutQuality is the empirical shortcut-quality bracket [Lower, Upper]
// of a graph (Definition 7, bracketed as described in DESIGN.md).
type ShortcutQuality = shortcut.QualityEstimate

// EstimateShortcutQuality brackets SQ(g) over the adversarial partition
// suite.
func EstimateShortcutQuality(g *Graph, seed int64) (ShortcutQuality, error) {
	return shortcut.EstimateSQ(g, seed)
}

// MSTResult reports a distributed minimum-spanning-tree computation.
type MSTResult = apps.MSTResult

// MinimumSpanningTree computes an MST distributedly with Borůvka phases
// over part-wise aggregation in Supported-CONGEST, returning the measured
// round count in the result.
//
// Prefer the Solver API: NewSolver(WithSeed(seed)).MinimumSpanningTree(g).
func MinimumSpanningTree(g *Graph, seed int64) (*MSTResult, error) {
	return NewSolver(WithSeed(seed)).MinimumSpanningTree(g)
}

// ElectricalFlow reports an s-t unit electrical flow (potentials, currents,
// effective resistance) computed through the distributed solver.
type ElectricalFlow = apps.FlowResult

// Flow computes the unit s-t electrical flow on g in the given model.
//
// Prefer the Solver API: NewSolver(WithMode(mode),
// WithSeed(seed)).Flow(g, s, t).
func Flow(g *Graph, s, t int, mode Mode, seed int64) (*ElectricalFlow, error) {
	return NewSolver(WithMode(mode), WithSeed(seed)).Flow(g, s, t)
}

// EffectiveResistance returns the s-t effective resistance of g.
//
// Prefer the Solver API: NewSolver(WithMode(mode),
// WithSeed(seed)).EffectiveResistance(g, s, t).
func EffectiveResistance(g *Graph, s, t int, mode Mode, seed int64) (float64, error) {
	return NewSolver(WithMode(mode), WithSeed(seed)).EffectiveResistance(g, s, t)
}

// SolveSDD solves the symmetric diagonally-dominant system
// (L_g + diag(extra)) x = b via the grounded-Laplacian reduction — the
// standard extension of the Laplacian paradigm to SDD matrices (heat
// diffusion, regularized regression, PageRank-style systems). extra must
// be nonnegative integers with at least one positive entry; b may have
// any sum.
// Prefer the Solver API: NewSolver(WithMode(mode), WithEps(eps),
// WithSeed(seed)).SolveSDD(g, extra, b).
func SolveSDD(g *Graph, extra []int64, b []float64, mode Mode, eps float64, seed int64) (*Result, error) {
	return NewSolver(WithMode(mode), WithEps(eps), WithSeed(seed)).SolveSDD(g, extra, b)
}

// MaxFlow approximates the s-t maximum flow via electrical-flow
// multiplicative weights (the §5 application: every MWU iteration is one
// distributed Laplacian solve), returning the approximate value, the exact
// Edmonds–Karp reference, and the total measured rounds.
// Prefer the Solver API: NewSolver(WithMode(mode),
// WithSeed(seed)).MaxFlow(g, s, t, eps).
func MaxFlow(g *Graph, s, t int, eps float64, mode Mode, seed int64) (*apps.ApproxFlowResult, error) {
	return NewSolver(WithMode(mode), WithSeed(seed)).MaxFlow(g, s, t, eps)
}

// SolveChebyshev solves L_g x = b by distributed Chebyshev iteration — the
// alternative iteration with no per-iteration global reductions (one
// residual check every few iterations), which wins on high-diameter
// topologies. Pass lo = hi = 0 for safe automatic spectral bounds.
//
// Prefer the Solver API: NewSolver(WithMode(mode), WithEps(eps),
// WithSeed(seed), WithChebyshev(lo, hi)).Solve(g, b).
func SolveChebyshev(g *Graph, b []float64, mode Mode, eps, lo, hi float64, seed int64) (*Result, error) {
	return NewSolver(WithMode(mode), WithEps(eps), WithSeed(seed),
		WithChebyshev(lo, hi)).Solve(g, b)
}

// SpectralPartition approximates the Fiedler vector by inverse power
// iteration (one distributed Laplacian solve per step) and returns the
// sign-cut bipartition with its measured rounds — spectral clustering
// through the solver.
// Prefer the Solver API: NewSolver(WithMode(mode),
// WithSeed(seed)).SpectralPartition(g).
func SpectralPartition(g *Graph, mode Mode, seed int64) (*apps.SpectralResult, error) {
	return NewSolver(WithMode(mode), WithSeed(seed)).SpectralPartition(g)
}
