package distlap

import (
	"io"

	"distlap/internal/apps"
	"distlap/internal/congest"
	"distlap/internal/core"
	"distlap/internal/partwise"
	"distlap/internal/simtrace"
)

// Collector receives the deterministic instrumentation events of a run:
// phase spans, per-engine round and message charges, and named counters.
// Collectors are passive — they never alter scheduling, randomness, or the
// measured metrics — so the same seed produces bit-identical results
// whether or not a trace is attached. See NewInMemoryTrace, NewJSONLTrace
// and NopTrace for the provided sinks.
type Collector = simtrace.Collector

// PhaseStat is one phase's exclusive cost in a recorded trace: rounds and
// messages charged while the phase path was the innermost open span.
type PhaseStat = simtrace.PhaseStat

// Metrics is the structured communication cost of a run: per-engine totals
// plus the per-phase breakdown when a trace was attached.
type Metrics = core.Metrics

// EngineMetrics is one engine's totals (rounds, messages, max edge load).
type EngineMetrics = core.EngineMetrics

// NewInMemoryTrace returns a queryable in-memory trace collector. Attach it
// with WithTrace, run, then inspect Phases, TopEdges, Counters, etc.
func NewInMemoryTrace() *simtrace.InMemory { return simtrace.NewInMemory() }

// NewJSONLTrace returns a trace collector that streams events to w as JSON
// lines with a fixed key order; same-seed runs produce byte-identical
// streams. Call Flush after the run to emit the summary records. The output
// is consumable by cmd/simtrace.
func NewJSONLTrace(w io.Writer) *simtrace.JSONL { return simtrace.NewJSONL(w) }

// NopTrace returns the no-op collector (the default when no trace is set).
func NopTrace() Collector { return simtrace.Nop{} }

// Solver is the configured entry point to the distributed Laplacian solver
// and its applications. Construct one with NewSolver and functional
// options; the zero configuration (Supported-CONGEST universal mode,
// tolerance 1e-8, seed 1, no trace) matches the package-level convenience
// functions.
//
//	tr := distlap.NewInMemoryTrace()
//	s := distlap.NewSolver(
//		distlap.WithMode(distlap.ModeUniversal),
//		distlap.WithEps(1e-8),
//		distlap.WithSeed(7),
//		distlap.WithTrace(tr),
//	)
//	res, err := s.Solve(g, b)
//
// A Solver is a value object: methods do not mutate it, and the same Solver
// may be reused across graphs.
//
// Concurrency contract. The one-shot Solver methods (Solve, Flow, ...) each
// run a private sequential simulation; concurrent calls on one Solver are
// safe only when no trace collector is attached, because a collector is a
// single-writer object shared by every call that Solver makes. For
// concurrent serving, Prepare an Instance instead: a prepared Instance is
// immutable and safe for concurrent use — requests share only read-only
// state, and each request attaches its own collector via WithRequestTrace.
//
// Amortization. Every Laplacian solve a one-shot method runs — Solve,
// SolveSDD, Flow, EffectiveResistance, and each step of SpectralPartition
// and MaxFlow — is exactly Prepare followed by one request whose engine
// seed is pinned to that solve's seed, so each pays the full per-graph
// setup (aggregation trees, cluster covers, preconditioner state) under
// its own "prepare" span. When the same graph is solved more than once —
// multiple right-hand sides, repeated flow queries, a serving daemon —
// call Prepare once and issue requests against the returned Instance;
// setup is then charged exactly once.
type Solver struct {
	mode  Mode
	eps   float64
	seed  int64
	trace simtrace.Collector
	cheb  bool
	lo    float64
	hi    float64
}

// Option configures a Solver.
type Option func(*Solver)

// WithMode selects the communication model (default ModeUniversal).
func WithMode(m Mode) Option { return func(s *Solver) { s.mode = m } }

// WithEps sets the relative-residual tolerance of solves (default 1e-8).
// 0 selects the default; any other value outside (0, 1) makes Prepare and
// every solving method (Solve, SolveSDD, Flow, ...) return an error.
func WithEps(eps float64) Option { return func(s *Solver) { s.eps = eps } }

// WithSeed sets the deterministic seed (default 1). Every derived source of
// randomness — network scheduling, preconditioner clustering, iteration
// start vectors — is a pure function of this seed.
func WithSeed(seed int64) Option { return func(s *Solver) { s.seed = seed } }

// WithTrace attaches a trace collector; every method routes its
// instrumentation (phase spans, round/message charges, counters) through
// it. nil restores the default no-op collector.
func WithTrace(c Collector) Option { return func(s *Solver) { s.trace = c } }

// WithChebyshev switches Solve to distributed Chebyshev iteration — the
// alternative iteration with no per-iteration global reductions, which wins
// on high-diameter topologies. lo and hi bracket the spectrum of the
// normalized system; pass 0, 0 for safe automatic bounds.
func WithChebyshev(lo, hi float64) Option {
	return func(s *Solver) { s.cheb = true; s.lo, s.hi = lo, hi }
}

// NewSolver returns a Solver with the defaults (ModeUniversal, eps 1e-8,
// seed 1, no trace) overridden by the given options.
func NewSolver(opts ...Option) *Solver {
	s := &Solver{mode: ModeUniversal, eps: 1e-8, seed: 1}
	for _, o := range opts {
		o(s)
	}
	return s
}

// prepareConfig is the Solver's configuration as core sees it, shared by
// Prepare and the one-shot solves.
func (sv *Solver) prepareConfig() core.PrepareConfig {
	return core.PrepareConfig{
		Mode:      sv.mode,
		Tol:       sv.eps,
		Seed:      sv.seed,
		Trace:     sv.trace,
		Chebyshev: sv.cheb,
		Lo:        sv.lo,
		Hi:        sv.hi,
	}
}

// Solve solves the Laplacian system L_g x = b to the configured tolerance
// and reports the measured communication cost. b must sum to
// (approximately) zero; the solution is mean-centered. With WithChebyshev
// the system is solved by Chebyshev iteration instead of preconditioned CG.
func (sv *Solver) Solve(g *Graph, b []float64) (*Result, error) {
	return core.SolveOnce(g, b, sv.prepareConfig())
}

// SolveSDD solves the symmetric diagonally-dominant system
// (L_g + diag(extra)) x = b via the grounded-Laplacian reduction. extra
// must be nonnegative integers with at least one positive entry; b may have
// any sum. It always iterates by preconditioned CG, WithChebyshev or not.
func (sv *Solver) SolveSDD(g *Graph, extra []int64, b []float64) (*Result, error) {
	return core.SolveSDD(g, extra, b, sv.prepareConfig())
}

// Flow computes the unit s-t electrical flow on g (potentials, currents,
// effective resistance) through one distributed solve.
func (sv *Solver) Flow(g *Graph, s, t int) (*ElectricalFlow, error) {
	el := &apps.Electrical{G: g, Mode: sv.mode, Tol: sv.eps, Seed: sv.seed, Trace: sv.trace}
	return el.Flow(s, t)
}

// EffectiveResistance returns the s-t effective resistance of g.
func (sv *Solver) EffectiveResistance(g *Graph, s, t int) (float64, error) {
	el := &apps.Electrical{G: g, Mode: sv.mode, Tol: sv.eps, Seed: sv.seed, Trace: sv.trace}
	return el.EffectiveResistance(s, t)
}

// MaxFlow approximates the s-t maximum flow via electrical-flow
// multiplicative weights: every MWU iteration is one distributed Laplacian
// solve. eps is the MWU approximation parameter in (0, 0.5) — distinct from
// the solver tolerance, which remains the Solver's configured eps.
func (sv *Solver) MaxFlow(g *Graph, s, t int, eps float64) (*apps.ApproxFlowResult, error) {
	a := &apps.ApproxMaxFlow{Mode: sv.mode, Epsilon: eps, Seed: sv.seed, Trace: sv.trace}
	return a.Run(g, s, t)
}

// SpectralPartition approximates the Fiedler vector by inverse power
// iteration (one distributed solve per step) and returns the sign-cut
// bipartition with its measured rounds.
func (sv *Solver) SpectralPartition(g *Graph) (*apps.SpectralResult, error) {
	sp := &apps.SpectralPartitioner{Mode: sv.mode, Tol: sv.eps, Seed: sv.seed, Trace: sv.trace}
	return sp.Partition(g)
}

// MinimumSpanningTree computes an MST distributedly with Borůvka phases
// over part-wise aggregation in Supported-CONGEST.
func (sv *Solver) MinimumSpanningTree(g *Graph) (*MSTResult, error) {
	nw := congest.NewNetwork(g, congest.Options{
		Supported: true, Seed: sv.seed, Trace: sv.trace,
	})
	return apps.MST(nw, partwise.NewShortcutSolver())
}

// AggregateResult reports a part-wise aggregation: the per-part aggregates
// and the structured communication cost of the run.
type AggregateResult struct {
	Values  []int64
	Metrics Metrics
}

// AggregateParts solves a p-congested part-wise aggregation instance on g
// in Supported-CONGEST via the paper's layered-graph reduction.
func (sv *Solver) AggregateParts(g *Graph, inst *PartwiseInstance, spec AggSpec) (*AggregateResult, error) {
	tr := simtrace.OrNop(sv.trace)
	nw := congest.NewNetwork(g, congest.Options{Supported: true, Seed: sv.seed, Trace: tr})
	out, err := partwise.NewLayeredSolver(sv.seed).Solve(nw, inst, spec)
	if err != nil {
		return nil, err
	}
	// congest.Word is an alias of int64, so the solver's output slice is
	// already the []int64 we return — no copy.
	return &AggregateResult{
		Values: out,
		Metrics: Metrics{
			Congest: core.CongestEngineMetrics(nw),
			Phases:  core.PhasesOf(nw.Trace()),
		},
	}, nil
}
