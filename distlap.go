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
// The API is the Solver: construct once with functional options (WithMode,
// WithEps, WithSeed, WithTrace, WithChebyshev) and call its methods. Every
// solve runs one pipeline: Solver.Prepare builds the per-graph setup into
// an Instance and each request runs only iteration against it; a one-shot
// Solver method is Prepare plus one request pinned to the Solver's seed.
// For repeated work on one graph — multiple right-hand sides, flow
// queries, a serving daemon (cmd/distlapd) — call Solver.Prepare once and
// issue requests against the returned Instance: per-graph setup is paid
// exactly once.
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

// Edge is an undirected edge {U, V} of positive integer weight.
type Edge = graph.Edge

// NewGraph returns the graph with n nodes and the given edges, edge i
// getting ID i; parallel edges are allowed. It rejects an edge with an
// endpoint outside [0, n), a self-loop or a non-positive weight, and a
// graph too large for the engines to index (more than math.MaxInt32
// nodes, or 2·len(edges) past it). The graph never changes after it is
// returned, so one graph may back any number of concurrent solves.
// NewGraph takes ownership of edges: the caller must not modify the slice
// after the call.
func NewGraph(n int, edges []Edge) (*Graph, error) { return graph.FromEdges(n, edges) }

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

// ElectricalFlow reports an s-t unit electrical flow (potentials, currents,
// effective resistance) computed through the distributed solver.
type ElectricalFlow = apps.FlowResult
